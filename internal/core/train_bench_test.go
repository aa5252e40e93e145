package core

import (
	"sync"
	"testing"

	"costream/internal/gnn"
)

// trainBenchFixture prepares the shared epoch-benchmark state once: the
// featurized sample set (with per-sample plans) and a model architecture.
var (
	tbOnce    sync.Once
	tbSamples []sample
	tbFeat    Featurizer
)

func trainBenchSetup(b *testing.B) []sample {
	b.Helper()
	tbOnce.Do(func() {
		tbSamples = metricSamples(b, &tbFeat, subCorpus(b, 300), MetricE2ELatency)
	})
	if len(tbSamples) == 0 {
		b.Fatal("no usable benchmark samples")
	}
	return tbSamples
}

// BenchmarkTrainEpoch measures one full training epoch of a fit
// (minibatch Adam over every sample, forward + backward on the tape
// arena, one gradient shadow folded after every chunk), each fit on the
// same tapes, as a runner's fits are. allocs/op stays near-flat with
// sample count: the steady-state tape path allocates nothing.
func BenchmarkTrainEpoch(b *testing.B) {
	samples := trainBenchSetup(b)
	cfg := DefaultTrainConfig(42)
	cfg.Epochs = 1
	cfg.Patience = 0
	cfg.Hidden = 24
	gcfg := gnn.DefaultConfig(tbFeat.FeatDims())
	gcfg.Hidden = cfg.Hidden
	net, err := gnn.New(gcfg, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	cm := &CostModel{Metric: MetricE2ELatency, Feat: tbFeat, Net: net}
	// fit shuffles its sample slice in place; keep the shared fixture in
	// its original order for the other benchmarks.
	local := append([]sample(nil), samples...)
	tp := newTapes() // one runner's tapes, warm after the first fit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cm.fit(tp, local, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeanLoss measures the validation pass (inference tape, no
// gradient bookkeeping).
func BenchmarkMeanLoss(b *testing.B) {
	samples := trainBenchSetup(b)
	gcfg := gnn.DefaultConfig(tbFeat.FeatDims())
	gcfg.Hidden = 24
	net, err := gnn.New(gcfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	cm := &CostModel{Metric: MetricE2ELatency, Feat: tbFeat, Net: net}
	tp := newTapes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := meanLoss(cm, samples, tp); err != nil {
			b.Fatal(err)
		}
	}
}
