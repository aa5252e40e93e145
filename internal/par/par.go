// Package par runs independent calls on a bounded set of goroutines. Each
// is the worker pool behind every batch of the repository (a heal pass,
// the tiles of a scoring round, a predictor's fits, the experiment suite,
// a corpus build): it starts its goroutines per call and waits for them.
// A Crew shares one short job, such as the per-metric passes of one
// prediction, between its caller and whichever of at most GOMAXPROCS-1
// long-lived helpers are parked at that moment, without starting a
// goroutine per job, allocating or ever waiting for a helper to arrive.
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

// A Crew shares the calls of one job at a time between the goroutine that
// runs it and helpers that are idle when it starts. The zero Crew is ready
// to use, and a Crew may run any number of jobs one after another.
type Crew struct {
	fn     func(w, i int)
	n      int64
	next   atomic.Int64  // the next index to claim
	joined atomic.Int64  // helpers that joined the job, numbering them
	state  atomic.Uint64 // job generation<<32 | closed | helpers inside
	done   chan struct{} // the last helper to leave a closed job signals
}

const (
	closed = 1 << 31
	inside = closed - 1
)

// offer is a job handed to a helper: the crew and the generation of the
// job, so a helper that wakes after the job closed joins nothing.
type offer struct {
	c   *Crew
	gen uint32
}

var (
	// offers is unbuffered: a send succeeds only into the receive of a
	// helper parked on it at that moment.
	offers = make(chan offer)
	// helpers counts the helper goroutines started. They live as long as
	// the process, parked on offers between jobs.
	helpers atomic.Int64
)

// Run calls fn(w, i) once for every i in [0, n) and returns when every
// call has returned. Before running calls itself, the caller offers the
// job to at most min(n, GOMAXPROCS)-1 helpers, and only to those parked
// at that moment: an offer never blocks, and at GOMAXPROCS 1, or for one
// call, every call runs on the caller's goroutine, in index order. When a
// helper took the job, the caller yields its processor once, so that the
// helper starts at once. The caller and the helpers that join claim
// indices one at a time, so a helper that wakes late takes what is left,
// or nothing; once no call is left to claim, Run waits only for the
// helpers still running one.
//
// w is 0 on the caller's goroutine and numbers the helpers in the order
// they joined, so it lies in [0, min(n, GOMAXPROCS)) and fn may keep
// per-goroutine state indexed by it: two calls with the same w never
// overlap. Anything that must not depend on the schedule must depend only
// on i.
func (c *Crew) Run(n int, fn func(w, i int)) {
	offered := min(n, runtime.GOMAXPROCS(0)) - 1
	if offered <= 0 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	for have := helpers.Load(); have < int64(offered); have = helpers.Load() {
		if helpers.CompareAndSwap(have, have+1) {
			go help()
		}
	}
	if c.done == nil {
		c.done = make(chan struct{}, 1)
	}
	c.fn, c.n = fn, int64(n)
	c.next.Store(0)
	c.joined.Store(0)
	gen := uint32(c.state.Load()>>32) + 1
	c.state.Store(uint64(gen) << 32) // open, no helper inside
	handed := 0
	for ; handed < offered; handed++ {
		select {
		case offers <- offer{c, gen}:
			continue
		default: // no helper is idle
		}
		break
	}
	if handed > 0 {
		// A woken helper waits in this P's run-next slot, which an idle P
		// steals from only after a pause. Yielding runs the helper on this
		// P now and puts the caller on the global run queue, which an idle
		// P serves first.
		runtime.Gosched()
	}
	c.work(0)
	if c.state.Or(closed)&inside != 0 {
		<-c.done
	}
	c.fn = nil
}

// work claims and runs calls as runner w until none is left.
func (c *Crew) work(w int) {
	for i := c.next.Add(1) - 1; i < c.n; i = c.next.Add(1) - 1 {
		c.fn(w, int(i))
	}
}

// help runs the jobs offered to it, one at a time.
func help() {
	for o := range offers {
		o.c.join(o.gen)
	}
}

// join takes part in job gen of c unless that job has closed.
func (c *Crew) join(gen uint32) {
	for s := c.state.Load(); ; s = c.state.Load() {
		if uint32(s>>32) != gen || s&closed != 0 {
			return
		}
		if c.state.CompareAndSwap(s, s+1) {
			break
		}
	}
	c.work(int(c.joined.Add(1)))
	if c.state.Add(^uint64(0)) == uint64(gen)<<32|closed {
		c.done <- struct{}{}
	}
}
