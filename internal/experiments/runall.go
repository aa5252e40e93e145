package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// RunAll executes every experiment of the paper, writes the rendered
// tables to w (when non-nil) and returns them for further processing
// (e.g. the Markdown report of cmd/costream-expts -md).
//
//   - Up to GOMAXPROCS experiments run at once, started in paper order.
//     Each is deterministic (fixed seeds, single-flight shared
//     artifacts), so the tables do not depend on GOMAXPROCS; only
//     wall-clock time does.
//   - Each experiment logs "<name> finished in <d>".
//   - A table is written to w once it and every earlier table are done.
//   - After the first failure no further experiment starts. RunAll waits
//     for the running ones, then returns the tables before the first
//     failure in paper order and its error as "<name>: <err>". Those
//     tables are all w receives: nothing from the failed experiment on
//     is written.
//   - Figure 1 aggregates Exp 1, 3, 5a and 6 and is rendered last.
func (s *Suite) RunAll(w io.Writer) ([]*Table, error) {
	var e1 *Exp1Result
	var e3 *Exp3Result
	var e5 *Exp5aResult
	var e6 *Exp6Result
	tables, err := runSteps([]step{
		tableStep("exp1-overall", s.Exp1Overall, &e1),
		tableStep("exp1-hardware", s.Exp1Hardware, nil),
		tableStep("exp1-querytypes", s.Exp1QueryTypes, nil),
		tableStep("exp2a-placement", s.Exp2aPlacement, nil),
		tableStep("exp2b-monitoring", s.Exp2bMonitoring, nil),
		tableStep("exp2c-search", s.Exp2cSearchStrategies, nil),
		tableStep("exp3-interpolation", s.Exp3Interpolation, &e3),
		tableStep("exp4-extrapolation", s.Exp4Extrapolation, nil),
		tableStep("exp5a-unseen-patterns", s.Exp5aUnseenPatterns, &e5),
		tableStep("exp5b-finetuning", s.Exp5bFineTuning, nil),
		tableStep("exp6-benchmarks", s.Exp6Benchmarks, &e6),
		tableStep("exp7a-feature-ablation", s.Exp7aFeatureAblation, nil),
		tableStep("exp7b-message-passing", s.Exp7bMessagePassing, nil),
	}, runtime.GOMAXPROCS(0), w, s.Logf)
	if err != nil {
		return tables, err
	}
	fig := s.Fig1Summary(e1, e3, e5, e6).Table()
	if w != nil {
		fig.WriteText(w)
	}
	return append(tables, fig), nil
}

// step is one experiment of RunAll: a name for logs and errors and a
// runner that returns the experiment's table.
type step struct {
	name string
	run  func() (*Table, error)
}

// tableStep turns an experiment runner into a step. A non-nil keep also
// receives the result, for the figures that aggregate it.
func tableStep[R interface{ Table() *Table }](name string, run func() (R, error), keep *R) step {
	return step{name, func() (*Table, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		if keep != nil {
			*keep = r
		}
		return r.Table(), nil
	}}
}

// runSteps runs steps under the contract RunAll documents: up to workers
// at once, started in order, tables written in order, no start after the
// first failure and no write from the first failed step on.
func runSteps(steps []step, workers int, w io.Writer, logf func(string, ...any)) ([]*Table, error) {
	tables := make([]*Table, len(steps))
	errs := make([]error, len(steps))
	done := make([]chan struct{}, len(steps))
	next := make(chan int, len(steps))
	for i := range steps {
		done[i] = make(chan struct{})
		next <- i
	}
	close(next)
	var failed atomic.Bool
	for range min(workers, len(steps)) {
		go func() {
			for i := range next {
				if !failed.Load() {
					start := time.Now()
					tables[i], errs[i] = steps[i].run()
					if errs[i] != nil {
						failed.Store(true)
					} else {
						logf("%s finished in %v", steps[i].name, time.Since(start).Round(time.Second))
					}
				}
				close(done[i])
			}
		}()
	}
	for i := range steps {
		<-done[i]
		if errs[i] != nil {
			for _, d := range done[i+1:] {
				<-d
			}
			return tables[:i], fmt.Errorf("%s: %w", steps[i].name, errs[i])
		}
		if w != nil {
			tables[i].WriteText(w)
		}
	}
	return tables, nil
}
