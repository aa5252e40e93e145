package workload

import (
	"math"
	"testing"

	"costream/internal/stream"
)

func newGen(seed int64) *Generator { return New(DefaultConfig(seed)) }

func TestQueryMixMatchesPaper(t *testing.T) {
	g := newGen(1)
	const n = 3000
	classCount := map[int]int{} // join count
	aggCount := 0
	filterHist := map[int]int{}
	for i := 0; i < n; i++ {
		q := g.Query().Query()
		if _, err := q.Analyze(); err != nil {
			t.Fatalf("generated an %v", err)
		}
		classCount[q.CountType(stream.OpJoin)]++
		if q.CountType(stream.OpAggregate) > 0 {
			aggCount++
		}
		filterHist[q.CountType(stream.OpFilter)]++
	}
	frac := func(c int) float64 { return float64(c) / n }
	if f := frac(classCount[0]); math.Abs(f-0.35) > 0.04 {
		t.Errorf("linear fraction = %v, want ~0.35", f)
	}
	if f := frac(classCount[1]); math.Abs(f-0.34) > 0.04 {
		t.Errorf("2-way fraction = %v, want ~0.34", f)
	}
	if f := frac(classCount[2]); math.Abs(f-0.31) > 0.04 {
		t.Errorf("3-way fraction = %v, want ~0.31", f)
	}
	if f := frac(aggCount); math.Abs(f-0.5) > 0.04 {
		t.Errorf("aggregation fraction = %v, want ~0.5", f)
	}
	// Filter counts are clamped by template positions, so only check the
	// support covers 1..4 and that most queries have at least one filter.
	for _, k := range []int{1, 2, 3, 4} {
		if filterHist[k] == 0 {
			t.Errorf("no queries with %d filters generated", k)
		}
	}
	if frac(filterHist[0]) > 0.05 {
		t.Errorf("zero-filter fraction = %v, want small", frac(filterHist[0]))
	}
}

// topology returns q's data-flow topology, failing the test if it has none.
func topology(t *testing.T, q *stream.Query) stream.Topology {
	t.Helper()
	topo, err := q.Topology()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNoChainedFiltersInTrainingTemplates(t *testing.T) {
	g := newGen(2)
	for i := 0; i < 500; i++ {
		q := g.Query().Query()
		topo := topology(t, q)
		for idx, op := range q.Ops {
			if op.Type != stream.OpFilter {
				continue
			}
			for _, d := range topo.Downs(idx) {
				if q.Ops[d].Type == stream.OpFilter {
					t.Fatalf("training query %d chains filters (ops %d->%d)", i, idx, d)
				}
			}
		}
	}
}

func TestFilterChainShape(t *testing.T) {
	g := newGen(3)
	for _, n := range []int{2, 3, 4} {
		q := g.FilterChain(n).Query()
		if got := q.CountType(stream.OpFilter); got != n {
			t.Errorf("FilterChain(%d) has %d filters", n, got)
		}
		chained, topo := 0, topology(t, q)
		for idx, op := range q.Ops {
			if op.Type != stream.OpFilter {
				continue
			}
			for _, d := range topo.Downs(idx) {
				if q.Ops[d].Type == stream.OpFilter {
					chained++
				}
			}
		}
		if chained != n-1 {
			t.Errorf("FilterChain(%d) has %d chained pairs, want %d", n, chained, n-1)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("FilterChain(1) must panic")
		}
	}()
	g.FilterChain(1)
}

func TestQueryOfClass(t *testing.T) {
	g := newGen(4)
	for _, class := range []stream.QueryClass{
		stream.ClassLinear, stream.ClassLinearAgg,
		stream.ClassTwoWayJoin, stream.ClassTwoWayJoinAgg,
		stream.ClassThreeWayJoin, stream.ClassThreeWayJoinAgg,
	} {
		for i := 0; i < 20; i++ {
			q := g.QueryOfClass(class).Query()
			if q.Class() != class {
				t.Fatalf("QueryOfClass(%v) produced %v", class, q.Class())
			}
		}
	}
}

func TestRatesComeFromTemplateGrids(t *testing.T) {
	g := newGen(5)
	in := func(v float64, grid []float64) bool {
		for _, x := range grid {
			if x == v {
				return true
			}
		}
		return false
	}
	for i := 0; i < 100; i++ {
		q := g.QueryOfClass(stream.ClassThreeWayJoin).Query()
		for _, idx := range q.Sources() {
			if !in(q.Ops[idx].EventRate, ThreeWayRates) {
				t.Fatalf("3-way source rate %v not in grid", q.Ops[idx].EventRate)
			}
		}
		l := g.QueryOfClass(stream.ClassLinear).Query()
		for _, idx := range l.Sources() {
			if !in(l.Ops[idx].EventRate, LinearRates) {
				t.Fatalf("linear source rate %v not in grid", l.Ops[idx].EventRate)
			}
		}
	}
}

func TestWindowsWithinTableII(t *testing.T) {
	g := newGen(6)
	for i := 0; i < 300; i++ {
		q := g.Query().Query()
		for _, op := range q.Ops {
			if op.Window == nil {
				continue
			}
			w := op.Window
			if err := w.Validate(); err != nil {
				t.Fatalf("invalid window: %v", err)
			}
			if w.Policy == stream.WindowCountBased {
				if w.Size < 5 || w.Size > 640 {
					t.Fatalf("count window size %v off-grid", w.Size)
				}
			} else if w.Size < 0.25 || w.Size > 16 {
				t.Fatalf("time window size %v off-grid", w.Size)
			}
			if w.Type == stream.WindowSliding {
				ratio := w.Slide / w.Size
				if ratio < 0.15 || ratio > 0.75 {
					t.Fatalf("slide ratio %v outside [0.3,0.7] (rounding tolerance)", ratio)
				}
			}
		}
	}
}

func TestSchemaWidths(t *testing.T) {
	g := newGen(7)
	for i := 0; i < 200; i++ {
		q := g.Query().Query()
		for _, idx := range q.Sources() {
			w := len(q.Ops[idx].FieldTypes)
			if w < MinTupleWidth || w > MaxTupleWidth {
				t.Fatalf("schema width %d outside [3,10]", w)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, g2 := newGen(42), newGen(42)
	for i := 0; i < 20; i++ {
		q1, q2 := g1.Query().Query(), g2.Query().Query()
		if len(q1.Ops) != len(q2.Ops) {
			t.Fatalf("iteration %d: op counts differ", i)
		}
		for j := range q1.Ops {
			if q1.Ops[j].Type != q2.Ops[j].Type || q1.Ops[j].Selectivity != q2.Ops[j].Selectivity {
				t.Fatalf("iteration %d op %d differs", i, j)
			}
		}
	}
}

func TestBenchmarkQueries(t *testing.T) {
	g := newGen(8)
	for _, id := range AllBenchmarks() {
		q := g.BenchmarkQuery(id).Query()
		if _, err := q.Analyze(); err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if id.String() == "unknown" {
			t.Fatalf("missing name for %d", id)
		}
	}
	// Advertisement: join present.
	if q := g.BenchmarkQuery(Advertisement).Query(); q.CountType(stream.OpJoin) != 1 {
		t.Error("advertisement benchmark must join two streams")
	}
	// Spike detection: contains a 2-filter chain (unseen pattern).
	q := g.BenchmarkQuery(SpikeDetection).Query()
	chain, topo := false, topology(t, q)
	for idx, op := range q.Ops {
		if op.Type == stream.OpFilter {
			for _, d := range topo.Downs(idx) {
				if q.Ops[d].Type == stream.OpFilter {
					chain = true
				}
			}
		}
	}
	if !chain {
		t.Error("spike detection must contain consecutive filters")
	}
	// Smart grid: 30 s window is outside the training grid.
	for _, id := range []BenchmarkID{SmartGridGlobal, SmartGridLocal} {
		q := g.BenchmarkQuery(id).Query()
		found := false
		for _, op := range q.Ops {
			if op.Window != nil && op.Window.Size == 30 {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: expected unseen 30 s window", id)
		}
	}
	// Global vs local differ in group-by.
	global := g.BenchmarkQuery(SmartGridGlobal).Query()
	local := g.BenchmarkQuery(SmartGridLocal).Query()
	gGB, lGB := false, false
	for _, op := range global.Ops {
		if op.Type == stream.OpAggregate {
			gGB = op.HasGroupBy
		}
	}
	for _, op := range local.Ops {
		if op.Type == stream.OpAggregate {
			lGB = op.HasGroupBy
		}
	}
	if gGB || !lGB {
		t.Errorf("global group-by = %v (want false), local = %v (want true)", gGB, lGB)
	}
}

func TestClusterSampling(t *testing.T) {
	g := newGen(9)
	for i := 0; i < 50; i++ {
		c := g.Cluster()
		if _, err := c.Check(); err != nil {
			t.Fatal(err)
		}
		if c.NumHosts() < 3 || c.NumHosts() > 6 {
			t.Fatalf("cluster size %d outside [3,6]", c.NumHosts())
		}
	}
}

func TestFilterQuery(t *testing.T) {
	g := newGen(10)
	q := g.FilterQuery(800, 0.25).Query()
	if q.Class() != stream.ClassLinear {
		t.Error("FilterQuery must be linear")
	}
	if q.Ops[q.Sources()[0]].EventRate != 800 {
		t.Error("rate not honored")
	}
	var sel float64
	for _, op := range q.Ops {
		if op.Type == stream.OpFilter {
			sel = op.Selectivity
		}
	}
	if sel != 0.25 {
		t.Errorf("selectivity = %v, want 0.25", sel)
	}
}

func TestSelectivityRanges(t *testing.T) {
	g := newGen(11)
	for i := 0; i < 500; i++ {
		q := g.Query().Query()
		for _, op := range q.Ops {
			switch op.Type {
			case stream.OpFilter:
				if op.Selectivity <= 0 || op.Selectivity > 1 {
					t.Fatalf("filter selectivity %v out of range", op.Selectivity)
				}
			case stream.OpJoin:
				if op.Selectivity < 1e-5-1e-12 || op.Selectivity > 1e-2+1e-12 {
					t.Fatalf("join selectivity %v outside [1e-5,1e-2]", op.Selectivity)
				}
			case stream.OpAggregate:
				if op.Selectivity < 0.01-1e-12 || op.Selectivity > 1 {
					t.Fatalf("agg selectivity %v outside [0.01,1]", op.Selectivity)
				}
			}
		}
	}
}
