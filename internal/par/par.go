// Package par runs independent calls on a bounded set of goroutines: the
// one worker pool behind every batch of the repository (a heal pass, the
// tiles of a scoring round, a predictor's fits, the experiment suite, a
// corpus build).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(w, i) once for every i in [0, n) and returns when every
// call has returned. The calls start in index order on min(n, workers)
// goroutines, the caller's among them; workers <= 0 means GOMAXPROCS. w
// is the number of the goroutine a call runs on, in [0, min(n, workers)),
// so fn may keep per-goroutine state indexed by it: two calls with the
// same w never overlap. When one goroutine is enough every call runs on
// the caller's, in index order.
//
// A goroutine takes the next index when its call returns, so a fast one
// takes more calls instead of idling behind a static partition. Anything
// that must not depend on the schedule (outputs, seeds, which error is
// reported) must depend only on i.
func Each(n, workers int, fn func(w, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
