package workload

import (
	"testing"

	"costream/internal/stream"
)

func TestBenchmarkQueriesDeterministicPerSeed(t *testing.T) {
	for _, id := range AllBenchmarks() {
		g1, g2 := newGen(77), newGen(77)
		q1, q2 := g1.BenchmarkQuery(id).Query(), g2.BenchmarkQuery(id).Query()
		if len(q1.Ops) != len(q2.Ops) {
			t.Fatalf("%v: op counts differ", id)
		}
		for i := range q1.Ops {
			if q1.Ops[i].EventRate != q2.Ops[i].EventRate || q1.Ops[i].Selectivity != q2.Ops[i].Selectivity {
				t.Fatalf("%v: op %d differs across identical seeds", id, i)
			}
		}
	}
}

func TestBenchmarkRatesVary(t *testing.T) {
	g := newGen(78)
	rates := map[float64]bool{}
	for i := 0; i < 40; i++ {
		q := g.BenchmarkQuery(SmartGridGlobal).Query()
		rates[q.Ops[q.Sources()[0]].EventRate] = true
	}
	if len(rates) < 3 {
		t.Errorf("benchmark event rates barely vary: %d distinct values", len(rates))
	}
}

func TestAdvertisementImpressionRatio(t *testing.T) {
	g := newGen(79)
	q := g.BenchmarkQuery(Advertisement).Query()
	srcs := q.Sources()
	if len(srcs) != 2 {
		t.Fatalf("advertisement has %d sources, want 2", len(srcs))
	}
	r0 := q.Ops[srcs[0]].EventRate
	r1 := q.Ops[srcs[1]].EventRate
	hi, lo := r0, r1
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi != 4*lo {
		t.Errorf("impressions/clicks ratio = %v, want 4", hi/lo)
	}
}

func TestClickJoinSelectivityBounds(t *testing.T) {
	for _, rate := range TwoWayRates {
		sel := clickJoinSelectivity(rate)
		if sel <= 0 || sel > 1e-2 {
			t.Errorf("selectivity %v for rate %v out of (0, 1e-2]", sel, rate)
		}
	}
	if s := clickJoinSelectivity(0); s != 1e-4 {
		t.Errorf("degenerate rate selectivity = %v, want 1e-4", s)
	}
}

func TestSpikeDetectionClassifiesAsLinearAgg(t *testing.T) {
	g := newGen(80)
	q := g.BenchmarkQuery(SpikeDetection).Query()
	if q.Class() != stream.ClassLinearAgg {
		t.Errorf("spike detection class = %v, want Linear+Agg", q.Class())
	}
}

func TestUnknownBenchmarkPanics(t *testing.T) {
	g := newGen(81)
	defer func() {
		if recover() == nil {
			t.Error("unknown benchmark id must panic")
		}
	}()
	g.BenchmarkQuery(BenchmarkID(99))
}

func TestConfigDefaultsFilledIn(t *testing.T) {
	g := New(Config{Seed: 1})
	q := g.Query().Query()
	if _, err := q.Analyze(); err != nil {
		t.Fatalf("generator with zero config produced an %v", err)
	}
	c := g.Cluster()
	if c.NumHosts() < 3 {
		t.Errorf("default cluster too small: %d", c.NumHosts())
	}
}
