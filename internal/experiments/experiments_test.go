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

func checkRow(t *testing.T, row MetricRow, context string) {
	t.Helper()
	if row.IsRegression {
		if row.CoQ50 < 1 || math.IsNaN(row.CoQ50) {
			t.Errorf("%s %s: COSTREAM Q50 = %v, want >= 1", context, row.Metric, row.CoQ50)
		}
		if row.CoQ95 < row.CoQ50 {
			t.Errorf("%s %s: Q95 %v < Q50 %v", context, row.Metric, row.CoQ95, row.CoQ50)
		}
	} else {
		if row.CoAcc < 0 || row.CoAcc > 1 {
			t.Errorf("%s %s: accuracy %v out of [0,1]", context, row.Metric, row.CoAcc)
		}
	}
	if row.N <= 0 {
		t.Errorf("%s %s: N = %d", context, row.Metric, row.N)
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
	r.Table().WriteText(&buf)
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
	if len(hw.Buckets) == 0 {
		t.Fatal("no hardware buckets")
	}
	dims := map[string]bool{}
	for _, b := range hw.Buckets {
		dims[b.Dimension] = true
		if b.N <= 0 {
			t.Errorf("bucket %s/%s empty", b.Dimension, b.Label)
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
	qt.Table().WriteText(&bytes.Buffer{})
	hw.Table().WriteText(&bytes.Buffer{})
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
			t.Errorf("%s: no optimized queries", row.Class)
		}
		if row.CoSpeedup <= 0 || math.IsNaN(row.CoSpeedup) {
			t.Errorf("%s: speedup %v", row.Class, row.CoSpeedup)
		}
	}
	r.Table().WriteText(&bytes.Buffer{})
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
		if row.SlowdownX <= 0 {
			t.Errorf("slow-down %v at rate %v", row.SlowdownX, row.EventRate)
		}
	}
	r.Table().WriteText(&bytes.Buffer{})
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
	if r.Budget <= 0 {
		t.Errorf("budget %d", r.Budget)
	}
	for _, row := range r.Rows {
		if row.N == 0 {
			t.Errorf("%s: no searched queries", row.Strategy)
		}
		if row.MedSpeedup <= 0 || math.IsNaN(row.MedSpeedup) {
			t.Errorf("%s: speed-up %v", row.Strategy, row.MedSpeedup)
		}
		if row.MeanExamined <= 0 || row.MeanExamined > float64(r.Budget) {
			t.Errorf("%s: mean examined %v outside (0, %d]", row.Strategy, row.MeanExamined, r.Budget)
		}
	}
	r.Table().WriteText(&bytes.Buffer{})
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
	if len(r.Groups) != 3 {
		t.Fatalf("chain groups = %d, want 3", len(r.Groups))
	}
	for _, g := range r.Groups {
		for _, row := range g.Rows {
			checkRow(t, row, "exp5a")
		}
	}
	ft, err := s.Exp5bFineTuning()
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Rows) != 3 {
		t.Fatalf("fine-tune rows = %d, want 3", len(ft.Rows))
	}
	for _, row := range ft.Rows {
		if row.BeforeQ50 < 1 || row.AfterQ50 < 1 {
			t.Errorf("q-errors below 1: %+v", row)
		}
	}
	ft.Table().WriteText(&bytes.Buffer{})
}

func TestExp6Shape(t *testing.T) {
	t.Parallel()
	s := smokeSuite()
	r, err := s.Exp6Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 4 {
		t.Fatalf("benchmark groups = %d, want 4", len(r.Groups))
	}
	names := map[string]bool{}
	for _, g := range r.Groups {
		names[g.Benchmark] = true
		for _, row := range g.Rows {
			checkRow(t, row, "exp6/"+g.Benchmark)
		}
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
	a.Table().WriteText(&bytes.Buffer{})
	b.Table().WriteText(&bytes.Buffer{})
}

func TestFig1Aggregation(t *testing.T) {
	e1 := &Exp1Result{Rows: []MetricRow{{Metric: "e2e-latency", IsRegression: true, CoQ50: 1.4, FlQ50: 13}}}
	e3 := &Exp3Result{Rows: []MetricRow{{Metric: "e2e-latency", IsRegression: true, CoQ50: 1.6, FlQ50: 60}}}
	e5 := &Exp5aResult{Groups: []ChainGroup{
		{Filters: 2, Rows: []MetricRow{{Metric: "e2e-latency", IsRegression: true, CoQ50: 1.7, FlQ50: 260}}},
		{Filters: 3, Rows: []MetricRow{{Metric: "e2e-latency", IsRegression: true, CoQ50: 2.2, FlQ50: 536}}},
		{Filters: 4, Rows: []MetricRow{{Metric: "e2e-latency", IsRegression: true, CoQ50: 2.7, FlQ50: 538}}},
	}}
	e6 := &Exp6Result{Groups: []BenchmarkGroup{
		{Benchmark: "A", Rows: []MetricRow{{Metric: "e2e-latency", IsRegression: true, CoQ50: 2.0, FlQ50: 1.3}}},
		{Benchmark: "B", Rows: []MetricRow{{Metric: "e2e-latency", IsRegression: true, CoQ50: 1.4, FlQ50: 2.3}}},
	}}
	s := NewSuite(1)
	fig := s.Fig1Summary(e1, e3, e5, e6)
	if len(fig.Scenarios) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(fig.Scenarios))
	}
	if fig.Scenarios[0].CoQ50 != 1.4 || fig.Scenarios[1].CoQ50 != 1.6 {
		t.Error("seen/unseen-hardware values wrong")
	}
	if fig.Scenarios[2].CoQ50 != 2.2 {
		t.Errorf("unseen-queries median = %v, want 2.2", fig.Scenarios[2].CoQ50)
	}
	fig.Table().WriteText(&bytes.Buffer{})
}
