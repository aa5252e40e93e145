package dataset

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

func buildCfg(n int, seed int64) BuildConfig {
	simCfg := sim.DefaultConfig()
	simCfg.DurationS, simCfg.WarmupS = 20, 4
	return BuildConfig{
		N:    n,
		Seed: seed,
		Gen:  workload.DefaultConfig(seed),
		Sim:  simCfg,
	}
}

func TestBuildCorpus(t *testing.T) {
	c, err := Build(buildCfg(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 60 {
		t.Fatalf("Len = %d, want 60", c.Len())
	}
	for i, tr := range c.Traces {
		if tr.Query == nil || tr.Cluster == nil || tr.Metrics == nil {
			t.Fatalf("trace %d incomplete", i)
		}
		if err := tr.Placement.Validate(tr.Query, tr.Cluster); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
	}
	st := c.Summarize()
	if st.SuccessRate <= 0.3 {
		t.Errorf("success rate %v suspiciously low", st.SuccessRate)
	}
	if st.SuccessRate > 0.999 {
		t.Log("note: no failing traces in this small corpus")
	}
}

// atGOMAXPROCS runs f at GOMAXPROCS n and then restores the previous
// setting. A test that calls it must not call t.Parallel.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func TestBuildDeterministicAcrossParallelism(t *testing.T) {
	var c1, c2 *Corpus
	var err error
	atGOMAXPROCS(1, func() { c1, err = Build(buildCfg(20, 7)) })
	if err != nil {
		t.Fatal(err)
	}
	atGOMAXPROCS(8, func() { c2, err = Build(buildCfg(20, 7)) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.Traces {
		m1, m2 := c1.Traces[i].Metrics, c2.Traces[i].Metrics
		if m1.ThroughputTPS != m2.ThroughputTPS || m1.ProcLatencyMS != m2.ProcLatencyMS {
			t.Fatalf("trace %d differs across parallelism: %v vs %v", i, m1, m2)
		}
	}
}

func TestSplitFractions(t *testing.T) {
	c, err := Build(buildCfg(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	train, val, test := c.Split(0.8, 0.1, 3)
	if train.Len() != 80 || val.Len() != 10 || test.Len() != 10 {
		t.Fatalf("split sizes %d/%d/%d, want 80/10/10", train.Len(), val.Len(), test.Len())
	}
	// Disjointness by pointer identity.
	seen := map[*Trace]bool{}
	for _, s := range []*Corpus{train, val, test} {
		for _, tr := range s.Traces {
			if seen[tr] {
				t.Fatal("trace appears in two splits")
			}
			seen[tr] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("splits cover %d traces, want 100", len(seen))
	}
}

func TestBalanced(t *testing.T) {
	c, err := Build(buildCfg(80, 3))
	if err != nil {
		t.Fatal(err)
	}
	label := func(tr *Trace) bool { return tr.Metrics.Backpressured }
	b := c.Balanced(label, 4)
	pos, neg := 0, 0
	for _, tr := range b.Traces {
		if label(tr) {
			pos++
		} else {
			neg++
		}
	}
	if pos != neg {
		t.Errorf("balanced subset has %d pos, %d neg", pos, neg)
	}
}

// TestBalancedShuffled is the regression test for the label-sorted
// Balanced bug: the subset must not be all positives followed by all
// negatives, so consumers that batch or truncate see mixed labels.
func TestBalancedShuffled(t *testing.T) {
	c := &Corpus{}
	for i := 0; i < 200; i++ {
		c.Traces = append(c.Traces, &Trace{Metrics: &sim.Metrics{Backpressured: i%2 == 0}})
	}
	label := func(tr *Trace) bool { return tr.Metrics.Backpressured }
	b := c.Balanced(label, 4)
	if b.Len() != 200 {
		t.Fatalf("balanced len %d, want 200", b.Len())
	}
	// The first half must not be label-pure: count positives in it.
	pos := 0
	for _, tr := range b.Traces[:b.Len()/2] {
		if label(tr) {
			pos++
		}
	}
	if pos == 0 || pos == b.Len()/2 {
		t.Fatalf("first half of balanced subset is label-pure (%d/%d positive): no final shuffle", pos, b.Len()/2)
	}
	// Determinism in the seed.
	b2 := c.Balanced(label, 4)
	for i := range b.Traces {
		if b.Traces[i] != b2.Traces[i] {
			t.Fatal("Balanced not deterministic for a fixed seed")
		}
	}
}

func TestSplitIndicesMatchesSplit(t *testing.T) {
	c, err := Build(buildCfg(50, 9))
	if err != nil {
		t.Fatal(err)
	}
	train, val, test := c.Split(0.8, 0.1, 12)
	ti, vi, si := SplitIndices(50, 0.8, 0.1, 12)
	check := func(name string, sub *Corpus, idx []int) {
		t.Helper()
		if sub.Len() != len(idx) {
			t.Fatalf("%s: %d traces vs %d indices", name, sub.Len(), len(idx))
		}
		for k, j := range idx {
			if sub.Traces[k] != c.Traces[j] {
				t.Fatalf("%s: position %d is not source trace %d", name, k, j)
			}
		}
	}
	check("train", train, ti)
	check("val", val, vi)
	check("test", test, si)
}

// TestSaveLoadRoundTrip: a corpus written as a one-shard store and opened
// again loads with every trace's query, placement and metrics intact.
func TestSaveLoadRoundTrip(t *testing.T) {
	c, err := Build(buildCfg(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	meta, err := writeShard(dir, 0, 0, c.Traces)
	if err != nil {
		t.Fatal(err)
	}
	man := &Manifest{Magic: ManifestMagic, Version: ManifestVersion, N: c.Len(), ShardSize: c.Len(), Shards: []ShardMeta{meta}}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("loaded %d traces, want %d", c2.Len(), c.Len())
	}
	for i := range c.Traces {
		a, b := c.Traces[i], c2.Traces[i]
		equalTraces(t, i, a, b)
		for j := range a.Query.Ops {
			oa, ob := a.Query.Ops[j], b.Query.Ops[j]
			if oa.Type != ob.Type || oa.Selectivity != ob.Selectivity {
				t.Fatalf("trace %d op %d differs", i, j)
			}
			if (oa.Window == nil) != (ob.Window == nil) {
				t.Fatalf("trace %d op %d window presence differs", i, j)
			}
		}
	}
	if _, err := OpenStore(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("opening a missing store must fail")
	}
}

func TestQueryFnOverride(t *testing.T) {
	cfg := buildCfg(10, 6)
	cfg.QueryFn = func(g *workload.Generator, i int) *stream.Analysis {
		return g.FilterChain(3)
	}
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.Traces {
		if tr.Query.CountType(stream.OpFilter) != 3 {
			t.Fatal("QueryFn not honored")
		}
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := Build(BuildConfig{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
}

// TestBuildNamesFirstFailingTrace: when several traces fail, Build
// reports the lowest-indexed one, whatever order they finished in.
func TestBuildNamesFirstFailingTrace(t *testing.T) {
	cfg := buildCfg(12, 3)
	cfg.ClusterFn = func(g *workload.Generator, i int) *hardware.Cluster {
		if i == 3 || i == 7 {
			return &hardware.Cluster{}
		}
		return g.Cluster()
	}
	const want = "dataset: trace 3: invalid cluster: empty cluster"
	for _, procs := range []int{1, 4} {
		var err error
		atGOMAXPROCS(procs, func() { _, err = Build(cfg) })
		if err == nil || err.Error() != want {
			t.Errorf("GOMAXPROCS=%d: err = %v, want %q", procs, err, want)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var c Corpus
	st := c.Summarize()
	if st.N != 0 || st.SuccessRate != 0 {
		t.Error("empty corpus summary must be zero")
	}
}

// syntheticCorpus builds a corpus of n traces with metrics only, enough
// for Summarize/Balanced benchmarks without running the simulator.
func syntheticCorpus(n int, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{Traces: make([]*Trace, n)}
	for i := range c.Traces {
		c.Traces[i] = &Trace{Metrics: &sim.Metrics{
			Success:       rng.Float64() < 0.8,
			Backpressured: rng.Float64() < 0.3,
			ThroughputTPS: rng.Float64() * 1000,
			ProcLatencyMS: rng.Float64() * 50,
			E2ELatencyMS:  rng.Float64() * 200,
		}}
	}
	return c
}

// BenchmarkSummarize guards the O(n log n) median: the previous insertion
// sort made a 100k-trace summary do ~10^10 comparisons.
func BenchmarkSummarize(b *testing.B) {
	c := syntheticCorpus(100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Summarize()
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median nil = %v, want 0", m)
	}
}
