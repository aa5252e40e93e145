package par

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, runtime.GOMAXPROCS(0) + 1, 100} {
			pool := min(n, workers)
			if workers <= 0 {
				pool = min(n, runtime.GOMAXPROCS(0))
			}
			calls := make([]atomic.Int32, n)
			busy := make([]atomic.Bool, max(pool, 1))
			Each(n, workers, func(w, i int) {
				if w < 0 || w >= pool {
					t.Errorf("n=%d workers=%d: call %d on goroutine %d, want [0, %d)", n, workers, i, w, pool)
					return
				}
				if busy[w].Swap(true) {
					t.Errorf("n=%d workers=%d: two calls overlap on goroutine %d", n, workers, w)
				}
				runtime.Gosched()
				calls[i].Add(1)
				busy[w].Store(false)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestEachStartsInIndexOrder: on one goroutine the calls run in index
// order; on several, each goroutine sees increasing indices.
func TestEachStartsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		last := []int{-1, -1, -1, -1}
		Each(200, workers, func(w, i int) {
			if i <= last[w] {
				t.Errorf("workers=%d: goroutine %d ran %d after %d", workers, w, i, last[w])
			}
			last[w] = i
		})
	}
}

// TestEachInlineOnCaller: with one worker, or at most one call, every
// call runs on the caller's goroutine.
func TestEachInlineOnCaller(t *testing.T) {
	caller := goid()
	for _, c := range []struct{ n, workers int }{{5, 1}, {1, 8}, {1, 0}, {0, 8}} {
		Each(c.n, c.workers, func(w, i int) {
			if id := goid(); id != caller || w != 0 {
				t.Errorf("n=%d workers=%d: call %d on goroutine %s (w=%d), want the caller's %s", c.n, c.workers, i, id, w, caller)
			}
		})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	Each(5, 0, func(w, i int) {
		if id := goid(); id != caller {
			t.Errorf("GOMAXPROCS=1, workers=0: call %d on goroutine %s, want the caller's %s", i, id, caller)
		}
	})
}

// TestEachPoolSize: the first `want` calls block until `want` of them are
// in flight at once, so Each must run exactly that many goroutines
// (fewer would never release the barrier), one of them the caller's.
func TestEachPoolSize(t *testing.T) {
	for _, c := range []struct{ gomaxprocs, n, workers, want int }{
		{1, 10, 3, 3},
		{3, 10, 0, 3},
		{3, 10, -2, 3},
		{2, 10, 0, 2},
		{4, 3, 0, 3},
		{1, 2, 5, 2},
	} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.gomaxprocs))
			caller := goid()
			var arrived, onCaller atomic.Int32
			release := make(chan struct{})
			seen := make([]atomic.Bool, c.want)
			Each(c.n, c.workers, func(w, i int) {
				if w >= c.want {
					t.Errorf("%+v: goroutine %d, want fewer than %d", c, w, c.want)
					return
				}
				seen[w].Store(true)
				if goid() == caller {
					onCaller.Add(1)
				}
				if i >= c.want {
					return
				}
				if arrived.Add(1) == int32(c.want) {
					close(release)
				}
				select {
				case <-release:
				case <-time.After(10 * time.Second):
					t.Errorf("%+v: only %d calls in flight at once", c, arrived.Load())
				}
			})
			for w := range seen {
				if !seen[w].Load() {
					t.Errorf("%+v: goroutine %d ran no call", c, w)
				}
			}
			if onCaller.Load() == 0 {
				t.Errorf("%+v: no call ran on the caller's goroutine", c)
			}
		}()
	}
}
