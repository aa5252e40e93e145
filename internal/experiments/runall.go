package experiments

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"costream/internal/par"
)

// RunAll executes every experiment of the paper, writes each table's text
// view to w (when non-nil) and returns the tables for further processing
// (e.g. their Markdown view, cmd/costream-expts -md).
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
//   - Figure 1 reads the e2e-latency rows of Exp 1, 3, 5a and 6 and is
//     written last; a missing row fails it as "fig1: <err>".
func (s *Suite) RunAll(w io.Writer) ([]*Table, error) {
	steps := []step{
		{"exp1-overall", s.Exp1Overall},
		{"exp1-hardware", s.Exp1Hardware},
		{"exp1-querytypes", s.Exp1QueryTypes},
		{"exp2a-placement", s.Exp2aPlacement},
		{"exp2b-monitoring", s.Exp2bMonitoring},
		{"exp2c-search", s.Exp2cSearchStrategies},
		{"exp3-interpolation", s.Exp3Interpolation},
		{"exp4-extrapolation", s.Exp4Extrapolation},
		{"exp5a-unseen-patterns", s.Exp5aUnseenPatterns},
		{"exp5b-finetuning", s.Exp5bFineTuning},
		{"exp6-benchmarks", s.Exp6Benchmarks},
		{"exp7a-feature-ablation", s.Exp7aFeatureAblation},
		{"exp7b-message-passing", s.Exp7bMessagePassing},
	}
	tables, err := runSteps(steps, 0, w, s.Logf)
	if err != nil {
		return tables, err
	}
	byName := map[string]*Table{}
	for i, st := range steps {
		byName[st.name] = tables[i]
	}
	fig, err := Fig1Summary(byName["exp1-overall"], byName["exp3-interpolation"],
		byName["exp5a-unseen-patterns"], byName["exp6-benchmarks"])
	if err != nil {
		return tables, fmt.Errorf("fig1: %w", err)
	}
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

// runSteps runs steps under the contract RunAll documents: up to workers
// at once (GOMAXPROCS when workers <= 0), started in order, tables written in order, no start after the
// first failure and no write from the first failed step on. par.Each runs
// the steps on a goroutine of its own, so this one writes each table as
// soon as it and every earlier one are done.
func runSteps(steps []step, workers int, w io.Writer, logf func(string, ...any)) ([]*Table, error) {
	tables := make([]*Table, len(steps))
	errs := make([]error, len(steps))
	done := make([]chan struct{}, len(steps))
	for i := range steps {
		done[i] = make(chan struct{})
	}
	// stop is the index of the first step to fail, len(steps) until one does.
	var stop atomic.Int64
	stop.Store(int64(len(steps)))
	go par.Each(len(steps), workers, func(_, i int) {
		defer close(done[i])
		if int64(i) > stop.Load() {
			return
		}
		start := time.Now()
		if tables[i], errs[i] = steps[i].run(); errs[i] != nil {
			stop.CompareAndSwap(int64(len(steps)), int64(i))
		} else {
			logf("%s finished in %v", steps[i].name, time.Since(start).Round(time.Second))
		}
	})
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
