package flatvec

import (
	"math"
	"sync"
	"testing"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/gbdt"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

var (
	corpusOnce sync.Once
	corpus     *dataset.Corpus
	corpusErr  error
)

func testCorpus(t *testing.T) *dataset.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		simCfg := sim.DefaultConfig()
		simCfg.DurationS, simCfg.WarmupS = 30, 5
		corpus, corpusErr = dataset.Build(dataset.BuildConfig{
			N: 350, Seed: 42, Gen: workload.DefaultConfig(42), Sim: simCfg,
		})
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

func TestFeaturizeDimAndFiniteness(t *testing.T) {
	c := testCorpus(t)
	for i, tr := range c.Traces[:80] {
		x, err := Featurize(analyzed(tr.Query), tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if len(x) != Dim {
			t.Fatalf("trace %d: dim %d, want %d", i, len(x), Dim)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trace %d: feature %d is %v", i, j, v)
			}
		}
	}
}

func TestFeaturizeIgnoresMappingStructure(t *testing.T) {
	// The flat vector cannot distinguish two placements that use the same
	// host set with the same co-location histogram - that is the point of
	// the baseline. Build such a pair explicitly.
	c := testCorpus(t)
	var tr *dataset.Trace
	for _, cand := range c.Traces {
		if len(cand.Query.Ops) >= 4 && len(cand.Cluster.Hosts) >= 2 {
			tr = cand
			break
		}
	}
	if tr == nil {
		t.Skip("no suitable trace")
	}
	p1 := append(sim.Placement(nil), tr.Placement...)
	// Swap the hosts of two operators placed on different hosts; if the
	// two ops swap between exactly two hosts, the histogram is identical.
	a, b := -1, -1
	for i := range p1 {
		for j := i + 1; j < len(p1); j++ {
			if p1[i] != p1[j] {
				a, b = i, j
			}
		}
	}
	if a < 0 {
		t.Skip("fully co-located trace")
	}
	p2 := append(sim.Placement(nil), p1...)
	p2[a], p2[b] = p1[b], p1[a]
	x1, err := Featurize(analyzed(tr.Query), tr.Cluster, p1)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := Featurize(analyzed(tr.Query), tr.Cluster, p2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("feature %d differs (%v vs %v); flat vector should be mapping-blind here", i, x1[i], x2[i])
		}
	}
}

func TestTrainRegressionAndPredict(t *testing.T) {
	c := testCorpus(t)
	train, _, test := c.Split(0.85, 0, 7)
	m, err := Train(train, core.MetricThroughput, gbdt.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.EvaluateRegression(m.Predictor(), test, core.MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if s.N == 0 {
		t.Fatal("no evaluations")
	}
	// The baseline learns coarse trends: sanity bound only.
	if s.Median > 200 {
		t.Errorf("flat vector Q50 = %v, implausibly bad", s.Median)
	}
	for _, tr := range test.Traces[:10] {
		v, err := m.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("prediction %v invalid", v)
		}
	}
}

func TestTrainClassification(t *testing.T) {
	c := testCorpus(t)
	m, err := Train(c, core.MetricSuccess, gbdt.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.Traces[:20] {
		p, err := m.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
	bal := c.Balanced(func(tr *dataset.Trace) bool { return tr.Metrics.Success }, 3)
	acc, err := core.EvaluateClassification(m.Predictor(), bal, core.MetricSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 {
		t.Errorf("baseline accuracy %v below coin flip on its training data", acc)
	}
}

func TestTrainPredictorImplementsInterface(t *testing.T) {
	c := testCorpus(t)
	train, _, _ := c.Split(0.9, 0, 11)
	pr, err := TrainPredictor(train, gbdt.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Traces[0]
	pc, err := placement.PredictOne(pr, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if pc.ThroughputTPS < 0 || pc.ProcLatencyMS < 0 || pc.E2ELatencyMS < 0 {
		t.Errorf("negative cost predictions: %+v", pc)
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	if _, err := Train(&dataset.Corpus{}, core.MetricThroughput, gbdt.DefaultConfig(1)); err == nil {
		t.Error("empty corpus accepted")
	}
}

// TestMalformedPlanRefused: training refuses a trace whose filter has no
// input with the plan's analysis error, before rate derivation reads the
// missing input. Featurize and a scoring session take only an analysis,
// so a malformed plan cannot reach them.
func TestMalformedPlanRefused(t *testing.T) {
	q := &stream.Query{
		Ops: []*stream.Operator{
			{ID: "src", Type: stream.OpSource, EventRate: 100, FieldTypes: []stream.DataType{stream.TypeInt}},
			{ID: "f", Type: stream.OpFilter, Selectivity: 0.5},
			{ID: "sink", Type: stream.OpSink},
		},
		Edges: []stream.Edge{{0, 2}},
	}
	c := workload.New(workload.DefaultConfig(1)).Cluster()
	const want = "flatvec: invalid query: filter f must have exactly one input, got 0"
	tr := &dataset.Trace{Query: q, Cluster: c, Placement: sim.Placement{0, 0, 0}, Metrics: &sim.Metrics{Success: true}}
	if _, err := Train(&dataset.Corpus{Traces: []*dataset.Trace{tr}}, core.MetricThroughput, gbdt.DefaultConfig(1)); err == nil || err.Error() != want {
		t.Errorf("Train: err = %v, want %q", err, want)
	}
}
