package experiments

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"costream/internal/core"
)

// smokeSuite returns a tiny-scale suite shared by all tests in this
// package (so base corpora and ensembles train once): the unit tests
// verify wiring and result shapes; the quantitative paper-shape claims are
// exercised by full-scale runs of cmd/costream-expts. The shape tests run with t.Parallel(): the suite's
// single-flight artifact caching makes concurrent access safe, and on a
// multi-core runner the experiments overlap instead of queueing.
var sharedSuite = NewSuite(0.08)

func smokeSuite() *Suite {
	return sharedSuite
}

// TestArtifactsSingleFlight hammers the lazy getters concurrently: every
// caller must get the same artifact pointer, proving the suite builds each
// artifact exactly once even under concurrent RunAll scheduling.
func TestArtifactsSingleFlight(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	const callers = 8
	ensembles := make([]*core.Ensemble, callers)
	corpora := make([]interface{}, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := s.BaseCorpus()
			if err != nil {
				t.Error(err)
				return
			}
			corpora[i] = c
			e, err := s.Ensemble(core.MetricProcLatency)
			if err != nil {
				t.Error(err)
				return
			}
			ensembles[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if corpora[i] != corpora[0] {
			t.Fatal("concurrent BaseCorpus callers got different corpora")
		}
		if ensembles[i] != ensembles[0] {
			t.Fatal("concurrent Ensemble callers got different ensembles")
		}
	}
}

func TestSuiteCachesArtifacts(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	c1, err := s.BaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.BaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("BaseCorpus not cached")
	}
	e1, err := s.Ensemble(core.MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Ensemble(core.MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("Ensemble not cached")
	}
	if len(e1.Models) != EnsembleSize {
		t.Errorf("ensemble size %d, want %d", len(e1.Models), EnsembleSize)
	}
}

func checkRow(t *testing.T, row Row, context string) {
	t.Helper()
	if row.Has("costream_q50") {
		if row.Get("costream_q50") < 1 || math.IsNaN(row.Get("costream_q50")) {
			t.Errorf("%s %s: COSTREAM Q50 = %v, want >= 1", context, row.Label, row.Get("costream_q50"))
		}
		if row.Get("costream_q95") < row.Get("costream_q50") {
			t.Errorf("%s %s: Q95 %v < Q50 %v", context, row.Label, row.Get("costream_q95"), row.Get("costream_q50"))
		}
	} else {
		if row.Get("costream_acc") < 0 || row.Get("costream_acc") > 1 {
			t.Errorf("%s %s: accuracy %v out of [0,1]", context, row.Label, row.Get("costream_acc"))
		}
	}
	if row.N <= 0 {
		t.Errorf("%s %s: N = %d", context, row.Label, row.N)
	}
}

func TestExp1OverallShape(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	r, err := s.Exp1Overall()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("Exp1 has %d rows, want 5", len(r.Rows))
	}
	for _, row := range r.Rows {
		checkRow(t, row, "exp1")
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("table rendering missing title")
	}
}

func TestExp1HardwareAndQueryTypes(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	hw, err := s.Exp1Hardware()
	if err != nil {
		t.Fatal(err)
	}
	if len(hw.Rows) == 0 {
		t.Fatal("no hardware buckets")
	}
	dims := map[string]bool{}
	for _, b := range hw.Rows {
		dims[b.Label] = true
		if b.N <= 0 {
			t.Errorf("bucket %s/<=%.0f empty", b.Label, b.Get("upper_edge"))
		}
	}
	for _, d := range []string{"cpu", "ram", "bandwidth", "latency"} {
		if !dims[d] {
			t.Errorf("missing dimension %s", d)
		}
	}
	qt, err := s.Exp1QueryTypes()
	if err != nil {
		t.Fatal(err)
	}
	if len(qt.Rows) != 6 {
		t.Fatalf("query types rows = %d, want 6", len(qt.Rows))
	}
	qt.WriteText(&bytes.Buffer{})
	hw.WriteText(&bytes.Buffer{})
}

func TestExp2aShape(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	r, err := s.Exp2aPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("exp2a rows = %d, want 6", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.N == 0 {
			t.Errorf("%s: no optimized queries", row.Label)
		}
		if row.Get("costream_speedup_p50") <= 0 || math.IsNaN(row.Get("costream_speedup_p50")) {
			t.Errorf("%s: speedup %v", row.Label, row.Get("costream_speedup_p50"))
		}
	}
	r.WriteText(&bytes.Buffer{})
}

func TestExp2bShape(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	r, err := s.Exp2bMonitoring()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no monitoring rows")
	}
	for _, row := range r.Rows {
		if row.Get("slowdown") <= 0 {
			t.Errorf("slow-down %v at rate %v", row.Get("slowdown"), row.Get("event_rate"))
		}
	}
	r.WriteText(&bytes.Buffer{})
}

func TestExp2cShape(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	r, err := s.Exp2cSearchStrategies()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("exp2c rows = %d, want 4 strategies", len(r.Rows))
	}
	for _, row := range r.Rows {
		budget := row.Get("budget")
		if budget <= 0 {
			t.Errorf("budget %v", budget)
		}
		if row.N == 0 {
			t.Errorf("%s: no searched queries", row.Label)
		}
		if row.Get("speedup_p50") <= 0 || math.IsNaN(row.Get("speedup_p50")) {
			t.Errorf("%s: speed-up %v", row.Label, row.Get("speedup_p50"))
		}
		if row.Get("mean_examined") <= 0 || row.Get("mean_examined") > budget {
			t.Errorf("%s: mean examined %v outside (0, %v]", row.Label, row.Get("mean_examined"), budget)
		}
	}
	r.WriteText(&bytes.Buffer{})
}

func TestExp3Shape(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	r, err := s.Exp3Interpolation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("exp3 rows = %d, want 5", len(r.Rows))
	}
	for _, row := range r.Rows {
		checkRow(t, row, "exp3")
	}
}

func TestExp5Shape(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	r, err := s.Exp5aUnseenPatterns()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.groups()) != 3 {
		t.Fatalf("chain groups = %d, want 3", len(r.groups()))
	}
	for _, row := range r.Rows {
		checkRow(t, row, "exp5a")
	}
	ft, err := s.Exp5bFineTuning()
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Rows) != 3 {
		t.Fatalf("fine-tune rows = %d, want 3", len(ft.Rows))
	}
	for _, row := range ft.Rows {
		if row.Get("before_q50") < 1 || row.Get("after_q50") < 1 {
			t.Errorf("q-errors below 1: %+v", row)
		}
	}
	ft.WriteText(&bytes.Buffer{})
}

func TestExp6Shape(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	r, err := s.Exp6Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.groups()) != 4 {
		t.Fatalf("benchmark groups = %d, want 4", len(r.groups()))
	}
	names := map[string]bool{}
	for _, row := range r.Rows {
		names[row.Group] = true
		checkRow(t, row, "exp6/"+row.Group)
	}
	for _, want := range []string{"Advertisement", "Spike Detection", "Smart Grid (global)", "Smart Grid (local)"} {
		if !names[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
}

func TestExp7Shape(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	a, err := s.Exp7aFeatureAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 3 {
		t.Fatalf("exp7a rows = %d, want 3", len(a.Rows))
	}
	b, err := s.Exp7bMessagePassing()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 6 {
		t.Fatalf("exp7b rows = %d, want 6", len(b.Rows))
	}
	a.WriteText(&bytes.Buffer{})
	b.WriteText(&bytes.Buffer{})
}

// e2eRow is an e2e-latency comparison row under group with the given
// COSTREAM and FlatVector q50s.
func e2eRow(group string, co, fl float64) Row {
	return Row{Group: group, Label: "e2e-latency", N: 10, Values: []Value{{"costream_q50", co}, {"flatvec_q50", fl}}}
}

func TestFig1Aggregation(t *testing.T) {
	e1 := exp1Table([]Row{e2eRow("", 1.4, 13)})
	e3 := exp3Table([]Row{e2eRow("", 1.6, 60)})
	e5 := exp5aTable([]Row{
		e2eRow("2-filter chain", 1.7, 260),
		e2eRow("3-filter chain", 2.2, 536),
		e2eRow("4-filter chain", 2.7, 538),
	})
	e6 := exp6Table([]Row{
		e2eRow("A", 2.0, 1.3),
		e2eRow("B", 1.4, 2.3),
	})
	fig, err := Fig1Summary(e1, e3, e5, e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(fig.Rows))
	}
	if fig.Rows[0].Get("costream_q50") != 1.4 || fig.Rows[1].Get("costream_q50") != 1.6 {
		t.Error("seen/unseen-hardware values wrong")
	}
	if fig.Rows[2].Get("costream_q50") != 2.2 {
		t.Errorf("unseen-queries median = %v, want 2.2", fig.Rows[2].Get("costream_q50"))
	}
	fig.WriteText(&bytes.Buffer{})
}
