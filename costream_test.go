package costream

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	facadeOnce   sync.Once
	facadeCorpus *Corpus
	facadeModel  *Model
	facadeErr    error
)

// facade builds one small corpus and model shared by the facade tests.
func facade(t *testing.T) (*Corpus, *Model) {
	t.Helper()
	facadeOnce.Do(func() {
		facadeCorpus, facadeErr = GenerateCorpus(250, 9)
		if facadeErr != nil {
			return
		}
		opts := DefaultTrainOptions()
		opts.Epochs = 8
		opts.EnsembleSize = 1
		facadeModel, facadeErr = TrainModel(facadeCorpus, opts)
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeCorpus, facadeModel
}

func exampleQuery(t *testing.T) *Query {
	t.Helper()
	b := NewQueryBuilder()
	src := b.AddSource(1000, []DataType{TypeInt, TypeDouble})
	f := b.AddFilter(FilterGT, TypeInt, 0.5)
	sink := b.AddSink()
	b.Chain(src, f, sink)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func exampleCluster() *Cluster {
	return &Cluster{Hosts: []*Host{
		{ID: "edge", CPU: 100, RAMMB: 2000, NetLatencyMS: 40, NetBandwidthMbps: 100},
		{ID: "fog", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
		{ID: "cloud", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}}
}

func TestExecute(t *testing.T) {
	q := exampleQuery(t)
	c := exampleCluster()
	m, err := Execute(q, c, Placement{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Success {
		t.Error("simple query should succeed")
	}
	if m.ThroughputTPS <= 0 {
		t.Errorf("throughput = %v, want positive", m.ThroughputTPS)
	}
}

func TestPredictAndOptimize(t *testing.T) {
	_, model := facade(t)
	q := exampleQuery(t)
	c := exampleCluster()
	costs, err := model.PredictCosts(q, c, Placement{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if costs.ProcLatencyMS < 0 || costs.ThroughputTPS < 0 {
		t.Errorf("negative predicted costs: %+v", costs)
	}
	best, bestCosts, err := model.OptimizePlacement(q, c, 12, MinProcLatency, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != q.NumOps() {
		t.Fatalf("placement length %d, want %d", len(best), q.NumOps())
	}
	if bestCosts.ProcLatencyMS < 0 {
		t.Error("negative optimized latency")
	}
	// The chosen placement must be executable.
	mm, err := Execute(q, c, best)
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Success {
		t.Error("optimized placement failed in execution")
	}
}

func TestHeuristicPlacement(t *testing.T) {
	q := exampleQuery(t)
	c := exampleCluster()
	p, err := HeuristicPlacement(q, c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(q, c); err != nil {
		t.Fatal(err)
	}
}

func TestTrainModelValidation(t *testing.T) {
	if _, err := TrainModel(nil, DefaultTrainOptions()); err == nil {
		t.Error("nil corpus accepted")
	}
	if _, err := TrainModel(&Corpus{}, DefaultTrainOptions()); err == nil {
		t.Error("empty corpus accepted")
	}
	// Options that used to return the random initial weights, or train at
	// another width than asked, without an error. A rate of 1e300 is
	// finite but makes every epoch's loss NaN.
	c, err := GenerateCorpus(40, 9)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		mutate func(*TrainOptions)
		want   string
	}{
		"NaN rate":          {func(o *TrainOptions) { o.LearningRate = math.NaN() }, "LR NaN"},
		"infinite rate":     {func(o *TrainOptions) { o.LearningRate = math.Inf(1) }, "LR +Inf"},
		"diverging rate":    {func(o *TrainOptions) { o.LearningRate = 1e300 }, "reached a finite loss"},
		"negative hidden":   {func(o *TrainOptions) { o.Hidden = -1 }, "Hidden -1"},
		"negative ensemble": {func(o *TrainOptions) { o.EnsembleSize = -2 }, "EnsembleSize -2"},
	} {
		opts := DefaultTrainOptions()
		opts.Epochs, opts.EnsembleSize, opts.Hidden = 2, 1, 8
		tc.mutate(&opts)
		if _, err := TrainModel(c, opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}

func TestGenerateCorpus(t *testing.T) {
	c, err := GenerateCorpus(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 30 {
		t.Fatalf("corpus size %d, want 30", c.Len())
	}
}

func TestOptimizePlacementSearchCtx(t *testing.T) {
	_, model := facade(t)
	q := exampleQuery(t)
	c := exampleCluster()
	budget := SearchBudget{MaxCandidates: 16}
	for _, name := range SearchStrategyNames() {
		strat, err := ParseSearchStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.OptimizePlacementSearchCtx(context.Background(), q, c, strat, MinProcLatency, budget, SearchOpts{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Strategy != name {
			t.Errorf("result strategy %q, want %q", res.Strategy, name)
		}
		if err := res.Placement.Validate(q, c); err != nil {
			t.Errorf("%s: invalid placement: %v", name, err)
		}
		if res.Examined <= 0 || res.Examined > budget.MaxCandidates {
			t.Errorf("%s: examined %d outside (0, %d]", name, res.Examined, budget.MaxCandidates)
		}
	}
	if _, err := ParseSearchStrategy("definitely-not-a-strategy"); err == nil {
		t.Error("unknown strategy name accepted")
	}
}

// TestOptimizePlacementWithIsRandomSearch pins the compatibility bridge:
// OptimizePlacement with k candidates is the RandomSample strategy under
// a k-candidate budget.
func TestOptimizePlacementWithIsRandomSearch(t *testing.T) {
	_, model := facade(t)
	q := exampleQuery(t)
	c := exampleCluster()
	p, costs, err := model.OptimizePlacement(q, c, 12, MinProcLatency, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.OptimizePlacementSearchCtx(context.Background(), q, c, RandomSampleStrategy{}, MinProcLatency,
		SearchBudget{MaxCandidates: 12}, SearchOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(p) != fmt.Sprint(res.Placement) || costs != res.Costs {
		t.Errorf("OptimizePlacement (%v, %+v) != RandomSample search (%v, %+v)",
			p, costs, res.Placement, res.Costs)
	}
}
