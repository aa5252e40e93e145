package par

import (
	"bytes"
	"runtime"
	"sync"
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

// TestCrewRunsEveryIndexOnce: every call of every job runs exactly once,
// at any GOMAXPROCS, over many jobs of one reused Crew and of several at
// once; w is 0 exactly on the caller's goroutine, lies in
// [0, min(n, GOMAXPROCS)) and is never shared by two running calls.
func TestCrewRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			done := make(chan struct{})
			for g := 0; g < 3; g++ {
				go func() {
					defer func() { done <- struct{}{} }()
					caller := goid()
					var c Crew
					for job := 0; job < 200; job++ {
						n := job % 9
						calls := make([]atomic.Int32, n)
						busy := make([]atomic.Bool, max(min(n, procs), 1))
						c.Run(n, func(w, i int) {
							if w < 0 || w >= min(n, procs) {
								t.Errorf("GOMAXPROCS=%d job %d: call %d on runner %d, want [0, %d)", procs, job, i, w, min(n, procs))
								return
							}
							if onCaller := goid() == caller; onCaller != (w == 0) {
								t.Errorf("GOMAXPROCS=%d job %d: call %d on runner %d, on the caller's goroutine: %v", procs, job, i, w, onCaller)
							}
							if busy[w].Swap(true) {
								t.Errorf("GOMAXPROCS=%d job %d: two calls overlap on runner %d", procs, job, w)
							}
							if i%3 == 0 {
								runtime.Gosched()
							}
							calls[i].Add(1)
							busy[w].Store(false)
						})
						for i := range calls {
							if got := calls[i].Load(); got != 1 {
								t.Errorf("GOMAXPROCS=%d job %d: index %d of %d ran %d times", procs, job, i, n, got)
							}
						}
					}
				}()
			}
			for g := 0; g < 3; g++ {
				<-done
			}
		}()
	}
}

// TestCrewInlineOnCaller: at GOMAXPROCS 1, or for a job of one call,
// every call runs on the caller's goroutine, in index order.
func TestCrewInlineOnCaller(t *testing.T) {
	caller := goid()
	var c Crew
	check := func(procs, n int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		next := 0
		c.Run(n, func(w, i int) {
			if id := goid(); id != caller || w != 0 || i != next {
				t.Errorf("GOMAXPROCS=%d n=%d: call %d (want %d) on goroutine %s (w=%d), want the caller's %s", procs, n, i, next, id, w, caller)
			}
			next++
		})
		if next != n {
			t.Errorf("GOMAXPROCS=%d n=%d: %d calls ran", procs, n, next)
		}
	}
	check(1, 5)
	check(1, 0)
	check(4, 1)
	check(4, 0)
}

// TestCrewNeverWaitsForAHelper: with every helper held inside other jobs,
// a job's offers find no idle helper, and the caller runs all its calls
// itself instead of waiting for one.
func TestCrewNeverWaitsForAHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Start the helpers, then hold each of them in a job of its own that
	// blocks until release. A helper busy elsewhere when a job is offered
	// misses it, so keep offering jobs until all of them are held.
	var warm Crew
	warm.Run(4, func(int, int) {})
	release := make(chan struct{})
	var held atomic.Int64
	var holders sync.WaitGroup
	defer holders.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for held.Load() < helpers.Load() {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("held %d of %d helpers", held.Load(), helpers.Load())
		}
		holders.Add(1)
		go func() {
			defer holders.Done()
			new(Crew).Run(4, func(w, _ int) {
				if w > 0 {
					held.Add(1)
				}
				<-release
			})
		}()
		time.Sleep(time.Millisecond)
	}
	caller := goid()
	var c Crew
	ran := 0
	c.Run(5, func(w, i int) {
		if id := goid(); id != caller || w != 0 {
			t.Errorf("call %d ran on goroutine %s (w=%d) with every helper held", i, id, w)
		}
		ran++
	})
	close(release)
	if ran != 5 {
		t.Fatalf("%d of 5 calls ran on the caller", ran)
	}
}

// TestCrewHandsOffWithoutAllocating: once the helpers are started, a job
// that helpers join allocates nothing, at GOMAXPROCS 2 and 4: the
// truncated average over the jobs, as testing.AllocsPerRun reads it, is
// 0. (AllocsPerRun itself runs at GOMAXPROCS 1, where nothing is handed
// off, so this reads the process's malloc count around the jobs. The
// runtime now and then allocates a wait record for a goroutine that parks
// on a channel, a few per thousand jobs.)
func TestCrewHandsOffWithoutAllocating(t *testing.T) {
	for _, procs := range []int{2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var c Crew
			var sink, helped atomic.Int64
			fn := func(w, i int) {
				// Long enough for a parked helper to wake and join.
				x := int64(i)
				for j := 0; j < 200_000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				sink.Add(x)
				if w > 0 {
					helped.Add(1)
				}
			}
			for range 20 {
				c.Run(5, fn)
			}
			const jobs = 200
			var before, after runtime.MemStats
			helped.Store(0)
			runtime.ReadMemStats(&before)
			for range jobs {
				c.Run(5, fn)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n/jobs != 0 {
				t.Errorf("GOMAXPROCS=%d: %d jobs allocated %d objects, want 0 per job", procs, jobs, n)
			}
			if helped.Load() == 0 {
				t.Errorf("GOMAXPROCS=%d: no helper joined any of %d jobs", procs, jobs)
			}
		}()
	}
}
