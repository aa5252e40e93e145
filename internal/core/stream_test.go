package core

import (
	"testing"

	"costream/internal/dataset"
	"costream/internal/sim"
	"costream/internal/workload"
)

func streamTestConfig(n int, seed int64) dataset.BuildConfig {
	simCfg := sim.DefaultConfig()
	simCfg.DurationS, simCfg.WarmupS = 15, 3
	return dataset.BuildConfig{
		N:    n,
		Seed: seed,
		Gen:  workload.DefaultConfig(seed),
		Sim:  simCfg,
	}
}

func streamTestCorpus(t *testing.T, n int, seed int64) *dataset.Corpus {
	t.Helper()
	c, err := dataset.Build(streamTestConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// streamTestStore writes the streamTestCorpus recipe as an on-disk store.
func streamTestStore(t *testing.T, n int, seed int64, shardSize int) *dataset.Store {
	t.Helper()
	st, err := dataset.StreamBuild(streamTestConfig(n, seed), dataset.StreamConfig{Dir: t.TempDir(), ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTrainPredictorSourceMatchesCorpusPath is the streaming-training
// contract: training from a Source with SplitIndices yields bit-identical
// weights to the materialize-then-Split corpus path, for every metric
// kind and ensemble member. TrainPredictor and TrainPredictorSource share
// their tail (one featurization, samplesFromRecords), so the reference
// trains each metric on its own, featurizing the corpus once per metric;
// TrainPredictor must match it too.
func TestTrainPredictorSourceMatchesCorpusPath(t *testing.T) {
	c := streamTestCorpus(t, 40, 77)
	const seed = 5
	cfg := PredictorConfig{
		Train:        DefaultTrainConfig(seed),
		EnsembleSize: 2,
		Metrics:      []Metric{MetricThroughput, MetricSuccess},
	}
	cfg.Train.Epochs = 2
	cfg.Train.Hidden = 8

	train, val, _ := c.Split(0.8, 0.1, seed)
	var want Predictor
	for _, m := range cfg.Metrics {
		want[m] = trainEnsemble(t, train, val, m, cfg.Train, cfg.EnsembleSize)
	}
	fromCorpus, err := TrainPredictor(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainIdx, valIdx, _ := dataset.SplitIndices(c.Len(), 0.8, 0.1, seed)
	fromSource, err := TrainPredictorSource(c, trainIdx, valIdx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for path, got := range map[string]*Predictor{"TrainPredictor": fromCorpus, "TrainPredictorSource": fromSource} {
		for _, wantE := range want.ensembles() {
			gotE := got[wantE.Metric]
			if gotE == nil {
				t.Fatalf("%s trained no ensemble for %v", path, wantE.Metric)
			}
			if len(gotE.Models) != len(wantE.Models) {
				t.Fatalf("%s %v: %d members vs %d", path, wantE.Metric, len(gotE.Models), len(wantE.Models))
			}
			for mi := range wantE.Models {
				wp := wantE.Models[mi].Net.Params()
				gp := gotE.Models[mi].Net.Params()
				if len(wp) != len(gp) {
					t.Fatalf("%s %v member %d: param group count differs", path, wantE.Metric, mi)
				}
				for k := range wp {
					for j := range wp[k] {
						if wp[k][j] != gp[k][j] {
							t.Fatalf("%s %v member %d: weight [%d][%d] differs: %v vs %v",
								path, wantE.Metric, mi, k, j, gp[k][j], wp[k][j])
						}
					}
				}
			}
		}
	}
}

// TestTrainPredictorSourceFromShardStore runs the streaming path against
// an actual on-disk shard store, proving the whole pipeline (StreamBuild
// -> Store.Iter -> featurize -> train) is equivalent to in-memory
// training.
func TestTrainPredictorSourceFromShardStore(t *testing.T) {
	c := streamTestCorpus(t, 24, 78)
	st := streamTestStore(t, 24, 78, 7)

	cfg := PredictorConfig{
		Train:        DefaultTrainConfig(3),
		EnsembleSize: 1,
		Metrics:      []Metric{MetricProcLatency},
	}
	cfg.Train.Epochs = 2
	cfg.Train.Hidden = 8

	trainIdx, valIdx, _ := dataset.SplitIndices(24, 0.8, 0.1, 3)
	fromStore, err := TrainPredictorSource(st, trainIdx, valIdx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromMem, err := TrainPredictorSource(c, trainIdx, valIdx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wp := fromMem[MetricProcLatency].Models[0].Net.Params()
	gp := fromStore[MetricProcLatency].Models[0].Net.Params()
	for k := range wp {
		for j := range wp[k] {
			if wp[k][j] != gp[k][j] {
				t.Fatalf("shard-store training diverged from in-memory at [%d][%d]", k, j)
			}
		}
	}
}

// TestFeaturizeSourceRejectsBadIndices: overlapping or out-of-range index
// sets are build bugs and must fail loudly.
func TestFeaturizeSourceRejectsBadIndices(t *testing.T) {
	c := streamTestCorpus(t, 6, 79)
	feat := Featurizer{}
	if _, err := featurizeSource(&feat, c, []int{0, 1}, []int{1, 2}); err == nil {
		t.Error("overlapping index sets accepted")
	}
	if _, err := featurizeSource(&feat, c, []int{0, 99}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestEvaluateSourceMatchesCorpus: evaluating a store streamed off disk
// agrees with evaluating the in-memory Build of the same recipe, and the
// index-balanced path agrees with evaluating Corpus.Balanced.
func TestEvaluateSourceMatchesCorpus(t *testing.T) {
	c := streamTestCorpus(t, 30, 80)
	st := streamTestStore(t, 30, 80, 7)
	cfg := DefaultTrainConfig(1)
	cfg.Epochs = 2
	cfg.Hidden = 8
	train, val, _ := c.Split(0.8, 0.1, 1)
	reg, err := Train(train, val, MetricThroughput, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := Train(train, val, MetricSuccess, cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantSum, err := EvaluateRegression(reg, c, MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := EvaluateRegression(reg, st, MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if wantSum != gotSum {
		t.Fatalf("regression eval differs: %+v vs %+v", wantSum, gotSum)
	}

	bal := c.Balanced(func(tr *dataset.Trace) bool { return MetricSuccess.Label(tr.Metrics) }, 9)
	if bal.Len() > 0 {
		wantAcc, err := EvaluateClassification(cls, bal, MetricSuccess)
		if err != nil {
			t.Fatal(err)
		}
		gotAcc, n, err := EvaluateClassificationBalanced(cls, st, MetricSuccess, 9)
		if err != nil {
			t.Fatal(err)
		}
		if n != bal.Len() || wantAcc != gotAcc {
			t.Fatalf("balanced eval differs: acc %v (n=%d) vs %v (n=%d)", wantAcc, bal.Len(), gotAcc, n)
		}
	}
}
