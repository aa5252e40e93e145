package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// RunAll executes every experiment of the paper and writes the rendered
// tables to w in paper order. It returns the tables for further
// processing (e.g. the Markdown report of cmd/costream-expts -md).
//
// Experiments run concurrently through a worker pool bounded by
// s.Workers (default GOMAXPROCS): each experiment is internally
// deterministic (fixed seeds, single-flight shared artifacts), so the
// tables are identical to a serial run; only wall-clock time changes.
// Tables are flushed to w incrementally, as soon as every earlier
// experiment has also finished, so the output order is stable too.
func (s *Suite) RunAll(w io.Writer) ([]*Table, error) {
	var e1 *Exp1Result
	var e3 *Exp3Result
	var e5 *Exp5aResult
	var e6 *Exp6Result

	type step struct {
		name string
		run  func() (*Table, error)
	}
	steps := []step{
		{"exp1-overall", func() (*Table, error) {
			r, err := s.Exp1Overall()
			if err != nil {
				return nil, err
			}
			e1 = r
			return r.Table(), nil
		}},
		{"exp1-hardware", func() (*Table, error) {
			r, err := s.Exp1Hardware()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"exp1-querytypes", func() (*Table, error) {
			r, err := s.Exp1QueryTypes()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"exp2a-placement", func() (*Table, error) {
			r, err := s.Exp2aPlacement()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"exp2b-monitoring", func() (*Table, error) {
			r, err := s.Exp2bMonitoring()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"exp2c-search", func() (*Table, error) {
			r, err := s.Exp2cSearchStrategies()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"exp3-interpolation", func() (*Table, error) {
			r, err := s.Exp3Interpolation()
			if err != nil {
				return nil, err
			}
			e3 = r
			return r.Table(), nil
		}},
		{"exp4-extrapolation", func() (*Table, error) {
			r, err := s.Exp4Extrapolation()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"exp5a-unseen-patterns", func() (*Table, error) {
			r, err := s.Exp5aUnseenPatterns()
			if err != nil {
				return nil, err
			}
			e5 = r
			return r.Table(), nil
		}},
		{"exp5b-finetuning", func() (*Table, error) {
			r, err := s.Exp5bFineTuning()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"exp6-benchmarks", func() (*Table, error) {
			r, err := s.Exp6Benchmarks()
			if err != nil {
				return nil, err
			}
			e6 = r
			return r.Table(), nil
		}},
		{"exp7a-feature-ablation", func() (*Table, error) {
			r, err := s.Exp7aFeatureAblation()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"exp7b-message-passing", func() (*Table, error) {
			r, err := s.Exp7bMessagePassing()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	}

	results := make([]*Table, len(steps))
	stepErrs := make([]error, len(steps))
	var mu sync.Mutex
	var failed atomic.Bool
	done := make([]bool, len(steps))
	flushed := 0
	// flushReady emits every table whose predecessors (in paper order)
	// have all completed, preserving the serial output order. After a
	// failure nothing more is flushed, so the streamed output never has
	// silent gaps.
	flushReady := func() {
		mu.Lock()
		defer mu.Unlock()
		for flushed < len(steps) && done[flushed] && !failed.Load() {
			if w != nil && results[flushed] != nil {
				results[flushed].WriteText(w)
			}
			flushed++
		}
	}

	workers := s.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > len(steps) {
		workers = len(steps)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				// Once any experiment has failed, drain the remaining
				// indices without running them (matching the serial
				// behavior of stopping at the first error).
				if !failed.Load() {
					start := time.Now()
					t, err := steps[idx].run()
					if err != nil {
						stepErrs[idx] = fmt.Errorf("%s: %w", steps[idx].name, err)
						failed.Store(true)
					} else {
						s.Logf("%s finished in %v", steps[idx].name, time.Since(start).Round(time.Second))
					}
					mu.Lock()
					results[idx] = t
					mu.Unlock()
				}
				mu.Lock()
				done[idx] = true
				mu.Unlock()
				flushReady()
			}
		}()
	}
	for idx := range steps {
		next <- idx
	}
	close(next)
	wg.Wait()

	var tables []*Table
	for idx := range steps {
		if stepErrs[idx] != nil {
			return tables, stepErrs[idx]
		}
		tables = append(tables, results[idx])
	}

	// Figure 1 aggregates already-computed results.
	fig := s.Fig1Summary(e1, e3, e5, e6).Table()
	tables = append(tables, fig)
	if w != nil {
		fig.WriteText(w)
	}
	return tables, nil
}
