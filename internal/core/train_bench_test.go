package core

import (
	"fmt"
	"runtime"
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

// BenchmarkTrainEpoch measures one full training epoch (minibatch Adam
// over every sample, forward + backward on the tape arena) of the
// data-parallel fit loop at different worker counts. The trained weights
// are bit-identical across all variants; the wall-clock gap is the value
// of sharding minibatches across cores. allocs/op stays near-flat with
// sample count: the steady-state tape path allocates nothing.
func BenchmarkTrainEpoch(b *testing.B) {
	samples := trainBenchSetup(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultTrainConfig(42)
			cfg.Epochs = 1
			cfg.Patience = 0
			cfg.Hidden = 24
			cfg.Workers = workers
			gcfg := gnn.DefaultConfig(tbFeat.FeatDims())
			gcfg.Hidden = cfg.Hidden
			net, err := gnn.New(gcfg, cfg.Seed)
			if err != nil {
				b.Fatal(err)
			}
			cm := &CostModel{Metric: MetricE2ELatency, Feat: tbFeat, Net: net}
			// fit shuffles its sample slice in place; give every variant
			// its own copy so the shared fixture (and the cross-variant
			// weight identity) survives.
			local := append([]sample(nil), samples...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cm.fit(local, nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeanLoss measures the validation pass (inference tapes, no
// gradient bookkeeping) serial vs sharded.
func BenchmarkMeanLoss(b *testing.B) {
	samples := trainBenchSetup(b)
	gcfg := gnn.DefaultConfig(tbFeat.FeatDims())
	gcfg.Hidden = 24
	net, err := gnn.New(gcfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	cm := &CostModel{Metric: MetricE2ELatency, Feat: tbFeat, Net: net}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ws := make([]*trainWorker, workers)
			for i := range ws {
				ws[i] = newTrainWorker()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := meanLoss(cm, samples, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorkerCounts compares serial against the machine's parallelism
// (and a fixed 8 for cross-machine comparability when they differ).
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		if n != 8 {
			counts = append(counts, n)
		}
		counts = append(counts, 8)
	}
	return counts
}
