package core

import (
	"math"
	"sync"
	"testing"

	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// testCorpus builds a small shared corpus once; tests slice it as needed.
var (
	corpusOnce sync.Once
	corpus     *dataset.Corpus
	corpusErr  error
)

func testCorpus(t testing.TB) *dataset.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		simCfg := sim.DefaultConfig()
		simCfg.DurationS, simCfg.WarmupS = 30, 5
		corpus, corpusErr = dataset.Build(dataset.BuildConfig{
			N:    400,
			Seed: 1234,
			Gen:  workload.DefaultConfig(1234),
			Sim:  simCfg,
		})
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

func fastTrainConfig(seed int64) TrainConfig {
	cfg := DefaultTrainConfig(seed)
	cfg.Epochs = 12
	cfg.Patience = 0
	cfg.Hidden = 24
	return cfg
}

func TestFeaturizerBuildsValidGraphs(t *testing.T) {
	c := testCorpus(t)
	f := Featurizer{}
	dims := f.FeatDims()
	for i, tr := range c.Traces[:100] {
		g, _, err := f.BuildGraph(analyzed(tr.Query), tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		nHosts := 0
		for _, nd := range g.Nodes {
			if want := dims[nd.Kind]; len(nd.Feat) != want {
				t.Fatalf("trace %d: %v node has %d features, want %d", i, nd.Kind, len(nd.Feat), want)
			}
			for _, v := range nd.Feat {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("trace %d: non-finite feature %v", i, v)
				}
			}
			if nd.Kind == gnn.KindHost {
				nHosts++
			}
		}
		// One host node per distinct placed host.
		distinct := map[int]bool{}
		for _, h := range tr.Placement {
			distinct[h] = true
		}
		if nHosts != len(distinct) {
			t.Fatalf("trace %d: %d host nodes, want %d", i, nHosts, len(distinct))
		}
		if len(g.PlaceEdges) != len(tr.Query.Ops) {
			t.Fatalf("trace %d: %d placement edges, want %d", i, len(g.PlaceEdges), len(tr.Query.Ops))
		}
	}
}

func TestFeatureModes(t *testing.T) {
	c := testCorpus(t)
	tr := c.Traces[0]

	qOnly := Featurizer{Mode: FeatQueryOnly}
	g, _, err := qOnly.BuildGraph(analyzed(tr.Query), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range g.Nodes {
		if nd.Kind == gnn.KindHost {
			t.Fatal("query-only graph contains host nodes")
		}
	}
	if len(g.PlaceEdges) != 0 {
		t.Fatal("query-only graph contains placement edges")
	}

	pOnly := Featurizer{Mode: FeatPlacementOnly}
	g2, _, err := pOnly.BuildGraph(analyzed(tr.Query), tr.Cluster, tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range g2.Nodes {
		if nd.Kind == gnn.KindHost {
			if nd.Feat[0] != 1 || nd.Feat[1] != 0 || nd.Feat[2] != 0 || nd.Feat[3] != 0 {
				t.Fatalf("placement-only host features = %v, want constant", nd.Feat)
			}
		}
	}
	if _, _, err := pOnly.BuildGraph(analyzed(tr.Query), nil, nil); err == nil {
		t.Error("placement featurization without cluster accepted")
	}
}

func TestNormalizationRanges(t *testing.T) {
	// Training-grid extremes map into ~[0, 1].
	checks := []struct {
		name     string
		fn       func(float64) float64
		lo, hi   float64
		loV, hiV float64
	}{
		{"rate", normRate, 20, 25600, 0, 1.01},
		{"cpu", normCPU, 50, 800, 0, 1.01},
		{"ram", normRAM, 1000, 32000, 0, 1.01},
		{"bw", normBW, 25, 10000, 0, 1.01},
		{"lat", normLat, 0.25, 160, 0, 1.01},
	}
	for _, ck := range checks {
		if v := ck.fn(ck.lo); math.Abs(v-ck.loV) > 0.02 {
			t.Errorf("%s(%v) = %v, want ~%v", ck.name, ck.lo, v, ck.loV)
		}
		if v := ck.fn(ck.hi); v < 0.9 || v > ck.hiV+0.12 {
			t.Errorf("%s(%v) = %v, want ~1", ck.name, ck.hi, v)
		}
	}
	if v := normSel(1); math.Abs(v-1) > 0.01 {
		t.Errorf("normSel(1) = %v, want ~1", v)
	}
	if v := normSel(1e-6); math.Abs(v) > 0.06 {
		t.Errorf("normSel(1e-6) = %v, want ~0", v)
	}
}

func TestTrainRegressionLearns(t *testing.T) {
	c := testCorpus(t)
	train, val, test := c.Split(0.7, 0.15, 99)
	cfg := fastTrainConfig(5)
	m, err := Train(train, val, MetricThroughput, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := EvaluateRegression(m, test, MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: with a tiny corpus and few epochs we still must beat a
	// wildly uninformed predictor. Throughput spans ~6 orders of
	// magnitude, so a median q-error below 8 indicates real learning.
	if s.Median > 8 {
		t.Errorf("throughput Q50 = %v, want < 8 (model not learning)", s.Median)
	}
	if s.N == 0 {
		t.Error("no test samples evaluated")
	}
}

func TestTrainClassificationLearns(t *testing.T) {
	c := testCorpus(t)
	train, val, test := c.Split(0.7, 0.15, 77)
	cfg := fastTrainConfig(6)
	m, err := Train(train, val, MetricSuccess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The held-out split alone has too few failing traces for a stable
	// accuracy estimate at this corpus size; balance over the full corpus
	// (this is a learning sanity check, not a generalization experiment).
	_ = test
	balanced := c.Balanced(func(tr *dataset.Trace) bool { return tr.Metrics.Success }, 1)
	acc, err := EvaluateClassification(m, balanced, MetricSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.55 {
		t.Errorf("success accuracy on balanced set = %v, want > 0.55", acc)
	}
}

func TestPredictRawRanges(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 3)
	cfg := fastTrainConfig(7)
	cfg.Epochs = 4
	reg, err := Train(train, val, MetricProcLatency, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := Train(train, val, MetricBackpressure, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.Traces[:20] {
		v, err := reg.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("regression prediction %v out of range", v)
		}
		p, err := cls.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of [0,1]", p)
		}
	}
}

func TestEnsembleAggregation(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 4)
	cfg := fastTrainConfig(8)
	cfg.Epochs = 4
	e := trainEnsemble(t, train, val, MetricThroughput, cfg, 3)
	if len(e.Models) != 3 {
		t.Fatalf("ensemble size %d, want 3", len(e.Models))
	}
	tr := c.Traces[0]
	costs, err := placement.PredictOne(e.Predictor(), analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range e.Models {
		v, _ := m.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
		sum += v
	}
	if mean := costs.ThroughputTPS; math.Abs(mean-sum/3) > 1e-9 {
		t.Errorf("ensemble mean %v != member mean %v", mean, sum/3)
	}
}

// trainEnsemble trains a k-member ensemble for one metric, as the
// predictor's slot for that metric.
func trainEnsemble(t *testing.T, train, val *dataset.Corpus, m Metric, cfg TrainConfig, k int) *Ensemble {
	t.Helper()
	pr, err := TrainPredictor(train, val, PredictorConfig{Train: cfg, EnsembleSize: k, Metrics: []Metric{m}})
	if err != nil {
		t.Fatal(err)
	}
	return pr[m]
}

func TestEnsembleMajorityVote(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 5)
	cfg := fastTrainConfig(9)
	cfg.Epochs = 4
	e := trainEnsemble(t, train, val, MetricSuccess, cfg, 3)
	tr := c.Traces[0]
	costs, err := placement.PredictOne(e.Predictor(), analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	votes := 0
	for _, m := range e.Models {
		p, _ := m.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
		if p > 0.5 {
			votes++
		}
	}
	if label := costs.Success; label != (votes*2 > 3) {
		t.Errorf("majority vote mismatch: label=%v votes=%d", label, votes)
	}
}

func TestFineTuneImprovesOnNewPattern(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 6)
	cfg := fastTrainConfig(10)
	m, err := Train(train, val, MetricThroughput, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Build a filter-chain corpus (unseen pattern).
	simCfg := sim.DefaultConfig()
	simCfg.DurationS, simCfg.WarmupS = 30, 5
	chains, err := dataset.Build(dataset.BuildConfig{
		N: 120, Seed: 555, Gen: workload.DefaultConfig(555), Sim: simCfg,
		QueryFn: func(g *workload.Generator, i int) *stream.Analysis {
			return g.FilterChain(2 + i%3)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ftTrain, _, ftTest := chains.Split(0.7, 0, 7)
	before, err := EvaluateRegression(m, ftTest, MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	ftCfg := cfg
	ftCfg.Epochs = 10
	ftCfg.LR = 1e-3
	if err := m.FineTune(ftTrain, ftCfg); err != nil {
		t.Fatal(err)
	}
	after, err := EvaluateRegression(m, ftTest, MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if after.Median > before.Median*1.5 {
		t.Errorf("fine-tuning degraded Q50 badly: %v -> %v", before.Median, after.Median)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 8)
	bad := fastTrainConfig(1)
	bad.Epochs = 0
	if _, err := Train(train, val, MetricThroughput, bad); err == nil {
		t.Error("zero epochs accepted")
	}
	empty := &dataset.Corpus{}
	if _, err := Train(empty, nil, MetricThroughput, fastTrainConfig(1)); err == nil {
		t.Error("empty corpus accepted")
	}
}

// TestTrainPredictorRejectsRepeatedMetric: a metric named twice used to
// train its ensemble twice and keep the second. Both entry points refuse
// it, naming the metric.
func TestTrainPredictorRejectsRepeatedMetric(t *testing.T) {
	c := subCorpus(t, 20)
	cfg := fastTrainConfig(1)
	cfg.Epochs = 1
	cfg.Hidden = 8
	pc := PredictorConfig{Train: cfg, EnsembleSize: 1, Metrics: []Metric{MetricThroughput, MetricSuccess, MetricThroughput}}
	const want = "core: metric throughput requested twice"
	if _, err := TrainPredictor(c, nil, pc); err == nil || err.Error() != want {
		t.Errorf("TrainPredictor: error %v, want %q", err, want)
	}
	idx := make([]int, len(c.Traces))
	for i := range idx {
		idx[i] = i
	}
	if _, err := TrainPredictorSource(c, idx, nil, pc); err == nil || err.Error() != want {
		t.Errorf("TrainPredictorSource: error %v, want %q", err, want)
	}
}

// TestFineTuneRejectsBadConfig: FineTune reaches fit without passing
// through Train, and fit is where the config is checked. A zero batch
// size used to index an empty slot list, zero epochs trained nothing
// without saying so, and a negative rate stepped uphill.
func TestFineTuneRejectsBadConfig(t *testing.T) {
	c := subCorpus(t, 60)
	train, _, _ := c.Split(0.8, 0.1, 8)
	cfg := fastTrainConfig(1)
	cfg.Epochs = 1
	cfg.Hidden = 8
	m, err := Train(train, nil, MetricThroughput, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Net.Params()
	before = snapshot(before)
	for name, mutate := range map[string]func(*TrainConfig){
		"zero batch size": func(c *TrainConfig) { c.BatchSize = 0 },
		"zero epochs":     func(c *TrainConfig) { c.Epochs = 0 },
		"negative rate":   func(c *TrainConfig) { c.LR = -1e-3 },
		"NaN rate":        func(c *TrainConfig) { c.LR = math.NaN() },
	} {
		bad := cfg
		mutate(&bad)
		if err := m.FineTune(train, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	after := m.Net.Params()
	for k := range before {
		for i := range before[k] {
			if after[k][i] != before[k][i] {
				t.Fatalf("a rejected config changed weight %d[%d]", k, i)
			}
		}
	}
}

func TestEvaluateMetricKindMismatch(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 9)
	cfg := fastTrainConfig(11)
	cfg.Epochs = 2
	m, err := Train(train, val, MetricThroughput, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateRegression(m, c, MetricSuccess); err == nil {
		t.Error("EvaluateRegression on classification metric accepted")
	}
	if _, err := EvaluateClassification(m, c, MetricThroughput); err == nil {
		t.Error("EvaluateClassification on regression metric accepted")
	}
}

func TestMetricHelpers(t *testing.T) {
	mt := &sim.Metrics{ThroughputTPS: 5, ProcLatencyMS: 7, E2ELatencyMS: 9, Backpressured: true, Success: false}
	if MetricThroughput.Value(mt) != 5 || MetricProcLatency.Value(mt) != 7 || MetricE2ELatency.Value(mt) != 9 {
		t.Error("metric Value extraction wrong")
	}
	if !MetricBackpressure.Label(mt) || MetricSuccess.Label(mt) {
		t.Error("metric Label extraction wrong")
	}
	for _, m := range AllMetrics() {
		if m.String() == "" {
			t.Error("empty metric name")
		}
	}
	if !MetricThroughput.IsRegression() || MetricSuccess.IsRegression() {
		t.Error("IsRegression wrong")
	}
}

func TestPredictorSanityDefaults(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 10)
	cfg := PredictorConfig{
		Train:        fastTrainConfig(12),
		EnsembleSize: 1,
		Metrics:      []Metric{MetricProcLatency},
	}
	cfg.Train.Epochs = 3
	pr, err := TrainPredictor(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Traces[0]
	pc, err := placement.PredictOne(pr, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if !pc.Success || pc.Backpressured {
		t.Error("missing classifiers must default to optimistic sanity values")
	}
	if pc.ProcLatencyMS < 0 {
		t.Error("negative latency prediction")
	}
}
