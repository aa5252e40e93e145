package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"costream/internal/placement"
	"costream/internal/sim"
)

// TestTrainObserverEpochStats checks the per-epoch telemetry hook on a
// two-metric predictor, whose fits all train concurrently: one record per
// (metric, member, epoch), correctly attributed and in epoch order per
// (metric, member), with plausible losses, durations and stage times, and
// with no effect on the trained weights.
func TestTrainObserverEpochStats(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 4)
	cfg := fastTrainConfig(8)
	cfg.Epochs = 3

	var mu sync.Mutex
	var recs []EpochStats
	obsCfg := cfg
	obsCfg.Observer = func(s EpochStats) {
		mu.Lock()
		recs = append(recs, s)
		mu.Unlock()
	}
	const k = 2
	metrics := []Metric{MetricThroughput, MetricSuccess}
	trainBoth := func(cfg TrainConfig) *Predictor {
		t.Helper()
		pr, err := TrainPredictor(train, val, PredictorConfig{Train: cfg, EnsembleSize: k, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	observed := trainBoth(obsCfg)
	if want := len(metrics) * k * cfg.Epochs; len(recs) != want {
		t.Fatalf("%d epoch records, want %d", len(recs), want)
	}
	type fitKey struct {
		metric string
		member int
	}
	perFit := map[fitKey]int{}
	for _, r := range recs {
		if r.Metric != "throughput" && r.Metric != "success" {
			t.Errorf("record metric %q", r.Metric)
		}
		if r.Member < 0 || r.Member >= k {
			t.Errorf("record member %d out of range", r.Member)
		}
		key := fitKey{r.Metric, r.Member}
		if r.Epoch != perFit[key] {
			t.Errorf("%s member %d epoch %d out of order (want %d)", r.Metric, r.Member, r.Epoch, perFit[key])
		}
		perFit[key]++
		if !r.HasVal {
			t.Errorf("%s member %d epoch %d: HasVal false with a validation split", r.Metric, r.Member, r.Epoch)
		}
		if r.TrainLoss <= 0 || r.ValLoss <= 0 {
			t.Errorf("%s member %d epoch %d: losses %g/%g", r.Metric, r.Member, r.Epoch, r.TrainLoss, r.ValLoss)
		}
		if r.DurationNS <= 0 {
			t.Errorf("%s member %d epoch %d: duration %d", r.Metric, r.Member, r.Epoch, r.DurationNS)
		}
		if r.GradNS <= 0 || r.ReduceNS <= 0 || r.StepNS <= 0 || r.ValNS <= 0 {
			t.Errorf("%s member %d epoch %d: stage times grad %d reduce %d step %d val %d, want all positive",
				r.Metric, r.Member, r.Epoch, r.GradNS, r.ReduceNS, r.StepNS, r.ValNS)
		}
		// A fit runs on one goroutine, so its stages partition the epoch:
		// they cannot exceed its wall time, and what they leave out (the
		// shuffle and loop bookkeeping) is small. Both ReadMemStats calls
		// fall outside the epoch's clock.
		parts := r.GradNS + r.ReduceNS + r.StepNS + r.ValNS
		if parts > r.DurationNS || float64(parts) < 0.8*float64(r.DurationNS) {
			t.Errorf("%s member %d epoch %d: stages sum to %d ns of a %d ns epoch (grad %d reduce %d step %d val %d)",
				r.Metric, r.Member, r.Epoch, parts, r.DurationNS, r.GradNS, r.ReduceNS, r.StepNS, r.ValNS)
		}
	}
	for _, m := range metrics {
		for member := 0; member < k; member++ {
			if n := perFit[fitKey{m.String(), member}]; n != cfg.Epochs {
				t.Errorf("%v member %d has %d records, want %d", m, member, n, cfg.Epochs)
			}
		}
	}

	// The observer is purely observational: weights match a plain run.
	plain := trainBoth(cfg)
	tr := c.Traces[0]
	want, err := placement.PredictOne(plain, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	got, err := placement.PredictOne(observed, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("observer changed training: prediction %+v != %+v", got, want)
	}
}

// TestPredictBatchRecordsInferenceMetrics checks the batched-inference
// histograms in the default registry accumulate per candidate, and that a
// batch is featurized once.
func TestPredictBatchRecordsInferenceMetrics(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 4)
	cfg := fastTrainConfig(8)
	cfg.Epochs = 2
	pr, err := TrainPredictor(train, val, PredictorConfig{Train: cfg, EnsembleSize: 1, Metrics: []Metric{MetricThroughput}})
	if err != nil {
		t.Fatal(err)
	}
	met := inferMet()
	cands0 := met.candidates.Value()
	featN0 := met.featurizeSeconds.Count()
	tr := c.Traces[0]
	placements := []sim.Placement{tr.Placement, tr.Placement}
	_, errs := placement.Score(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), placements, placement.AllCosts)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if got := met.candidates.Value() - cands0; got != int64(len(placements)) {
		t.Errorf("candidate counter moved %d, want %d", got, len(placements))
	}
	if got := met.featurizeSeconds.Count() - featN0; got != 1 {
		t.Errorf("featurize histogram moved %d, want 1", got)
	}
}
