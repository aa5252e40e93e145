package controlplane

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// chainQuery is the analysis of a linear query of n >= 2 operators: a source, n-2
// filters and a sink.
func chainQuery(n int) *stream.Analysis {
	b := stream.NewBuilder()
	ops := []int{b.AddSource(200, []stream.DataType{stream.TypeInt, stream.TypeDouble})}
	for range n - 2 {
		ops = append(ops, b.AddFilter(stream.FilterGT, stream.TypeInt, 0.9))
	}
	b.Chain(append(ops, b.AddSink())...)
	return analyzed(b.MustBuild())
}

// dispatchSizes are the operator counts of the deployments of the
// dispatch-order tests, in deployment order, and dispatchOrder the order
// their decisions must start in: descending operator count, ties in
// deployment order.
var (
	dispatchSizes = []int{3, 7, 9, 3, 9, 2, 5}
	dispatchOrder = []int{2, 4, 1, 6, 0, 3, 5}
)

// TestPassStartsLargestFirst: at GOMAXPROCS 1 a pass starts its
// decisions in descending operator count, ties in index order; at any
// GOMAXPROCS every decision runs once on its own copy and the outcomes
// come back in deployment order.
func TestPassStartsLargestFirst(t *testing.T) {
	deps := make([]Deployment, len(dispatchSizes))
	for i, n := range dispatchSizes {
		deps[i] = Deployment{ID: fmt.Sprintf("d%d", i), Query: chainQuery(n)}
	}
	run := func() ([]int, []Outcome) {
		var mu sync.Mutex
		var started []int
		outs := Pass(deps, func(i int, d *Deployment) (Decision, error) {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			d.LastMoveS = float64(i + 1)
			return Decision{Action: d.ID}, nil
		})
		return started, outs
	}
	check := func(procs int, started []int, outs []Outcome) {
		t.Helper()
		if len(started) != len(deps) {
			t.Fatalf("GOMAXPROCS %d: %d decisions started, want %d", procs, len(started), len(deps))
		}
		for i, o := range outs {
			if o.Deployment.ID != deps[i].ID || o.Decision.Action != deps[i].ID || o.Deployment.LastMoveS != float64(i+1) {
				t.Fatalf("GOMAXPROCS %d: outcome %d is %+v, want %s's own decision", procs, i, o, deps[i].ID)
			}
			if deps[i].LastMoveS != 0 {
				t.Fatalf("GOMAXPROCS %d: the pass wrote deps[%d]", procs, i)
			}
		}
	}
	var started []int
	var outs []Outcome
	atGOMAXPROCS(1, func() { started, outs = run() })
	check(1, started, outs)
	if !slices.Equal(started, dispatchOrder) {
		t.Fatalf("decisions started in order %v, want %v (largest first, ties by index)", started, dispatchOrder)
	}
	started, outs = run()
	check(runtime.GOMAXPROCS(0), started, outs)
	slices.Sort(started)
	if !slices.Equal(started, slices.Sorted(slices.Values(dispatchOrder))) {
		t.Fatalf("GOMAXPROCS %d: decisions %v, want each index once", runtime.GOMAXPROCS(0), started)
	}
}

// orderFeed reports every observation as a failure, so every heal
// re-places its deployment, and records which deployment each
// observation was for, in call order.
type orderFeed struct {
	mu    sync.Mutex
	ids   map[*stream.Analysis]string
	order []string
}

func (f *orderFeed) Observe(q *stream.Analysis, c hardware.Checked, p sim.Placement) (*sim.Metrics, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.order = append(f.order, f.ids[q])
	return &sim.Metrics{Success: false}, nil
}

// TestPlaneTickStartsLargestFirst: a tick's heals start in descending
// operator count, not in id order, at GOMAXPROCS 1; at any GOMAXPROCS
// every deployment's history and the tick's log lines stay in sorted-id
// order.
func TestPlaneTickStartsLargestFirst(t *testing.T) {
	play := func() (*orderFeed, []string, []Status) {
		var logs []string
		feed := &orderFeed{ids: map[*stream.Analysis]string{}}
		pl, err := New(Config{Policy: testPolicy(), Feed: feed, Seed: 11, Logf: func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
		if err != nil {
			t.Fatal(err)
		}
		c := checked(testCluster())
		for i, n := range dispatchSizes {
			q, id := chainQuery(n), fmt.Sprintf("d%d", i)
			feed.ids[q] = id
			if _, err := pl.Deploy(context.Background(), id, q, c, nil); err != nil {
				t.Fatal(err)
			}
		}
		logs = logs[:0]
		rep, err := pl.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Healed != len(dispatchSizes) || rep.Violations != len(dispatchSizes) {
			t.Fatalf("tick report %+v, want every deployment healed after a violation", rep)
		}
		var statuses []Status
		for _, st := range pl.List() {
			full, _ := pl.Get(st.ID)
			statuses = append(statuses, full)
		}
		return feed, logs, statuses
	}
	var want []string
	for _, i := range dispatchOrder {
		want = append(want, fmt.Sprintf("d%d", i))
	}
	var serial []Status
	atGOMAXPROCS(1, func() {
		feed, _, statuses := play()
		if !slices.Equal(feed.order, want) {
			t.Fatalf("heals observed in order %v, want %v (largest first, ties by id)", feed.order, want)
		}
		serial = statuses
	})
	feed, logs, statuses := play()
	if len(feed.order) != len(dispatchSizes) {
		t.Fatalf("GOMAXPROCS %d: %d observations, want one per deployment", runtime.GOMAXPROCS(0), len(feed.order))
	}
	if !reflect.DeepEqual(statuses, serial) {
		t.Fatalf("GOMAXPROCS %d and 1 differ:\n %+v\n %+v", runtime.GOMAXPROCS(0), statuses, serial)
	}
	var ids []string
	for i, st := range statuses {
		if want := fmt.Sprintf("d%d", i); st.ID != want {
			t.Fatalf("status %d is %s, want %s", i, st.ID, want)
		}
		if h := st.History; len(h) != 2 || h[1].Tick != 1 || h[1].Violation != ViolationObservedFailure {
			t.Fatalf("%s's history %+v, want its deploy and a tick-1 observed failure", st.ID, h)
		}
		ids = append(ids, st.ID)
	}
	var logged []string
	for _, line := range logs {
		if id, decision, ok := strings.Cut(strings.TrimPrefix(line, "controlplane: "), ": "); ok && strings.Contains(decision, " -> ") {
			logged = append(logged, id)
		}
	}
	if !slices.Equal(logged, ids) {
		t.Fatalf("heal log lines for %v, want one per deployment in sorted-id order %v", logged, ids)
	}
}
