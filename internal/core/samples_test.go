package core

import (
	"testing"

	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// metricSamples featurizes a corpus and derives the metric's samples from
// it, the way Train does.
func metricSamples(t testing.TB, f *Featurizer, c *dataset.Corpus, metric Metric) []sample {
	t.Helper()
	recs, err := featurizeCorpus(f, c)
	if err != nil {
		t.Fatal(err)
	}
	return samplesFromRecords(recs, metric)
}

// fakeTrace builds a minimal valid trace with the given outcome flags.
func fakeTrace(t *testing.T, success, backpressured bool) *dataset.Trace {
	t.Helper()
	b := stream.NewBuilder()
	s := b.AddSource(100, []stream.DataType{stream.TypeInt})
	k := b.AddSink()
	b.Chain(s, k)
	q := b.MustBuild()
	c := &hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "h", CPU: 400, RAMMB: 8000, NetLatencyMS: 5, NetBandwidthMbps: 800},
	}}
	return &dataset.Trace{
		Query:     q,
		Cluster:   c,
		Placement: sim.Placement{0, 0},
		Metrics: &sim.Metrics{
			ThroughputTPS: 100, ProcLatencyMS: 10, E2ELatencyMS: 20,
			Success: success, Backpressured: backpressured,
		},
	}
}

func TestBuildSamplesRegressionSkipsFailures(t *testing.T) {
	c := &dataset.Corpus{Traces: []*dataset.Trace{
		fakeTrace(t, true, false),
		fakeTrace(t, false, true),
		fakeTrace(t, true, true),
	}}
	samples := metricSamples(t, &Featurizer{}, c, MetricThroughput)
	if len(samples) != 2 {
		t.Fatalf("regression samples = %d, want 2 (failures excluded)", len(samples))
	}
	for _, s := range samples {
		if s.w != 1 {
			t.Error("regression samples must be unweighted")
		}
	}
}

func TestBuildSamplesClassificationWeights(t *testing.T) {
	// 3 successes, 1 failure: weights must be inverse-frequency.
	c := &dataset.Corpus{Traces: []*dataset.Trace{
		fakeTrace(t, true, false),
		fakeTrace(t, true, false),
		fakeTrace(t, true, false),
		fakeTrace(t, false, false),
	}}
	samples := metricSamples(t, &Featurizer{}, c, MetricSuccess)
	if len(samples) != 4 {
		t.Fatalf("classification samples = %d, want 4", len(samples))
	}
	var wPos, wNeg float64
	for _, s := range samples {
		if s.y == 1 {
			wPos = s.w
		} else {
			wNeg = s.w
		}
	}
	// wPos = 4/(2*3), wNeg = 4/(2*1).
	if wPos >= wNeg {
		t.Errorf("minority class weight %v must exceed majority %v", wNeg, wPos)
	}
	if wPos*3+wNeg*1 != 4 {
		t.Errorf("weights must preserve total mass: %v", wPos*3+wNeg)
	}
}

func TestTrainNoRegressionTargets(t *testing.T) {
	// Only failed traces: regression training must error out.
	c := &dataset.Corpus{Traces: []*dataset.Trace{fakeTrace(t, false, true)}}
	if _, err := Train(c, nil, MetricProcLatency, DefaultTrainConfig(1)); err == nil {
		t.Error("regression training on failure-only corpus accepted")
	}
}

func TestFineTuneEmptyCorpus(t *testing.T) {
	c := &dataset.Corpus{Traces: []*dataset.Trace{fakeTrace(t, true, false)}}
	cfg := DefaultTrainConfig(2)
	cfg.Epochs = 1
	m, err := Train(c, nil, MetricThroughput, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FineTune(&dataset.Corpus{}, cfg); err == nil {
		t.Error("fine-tuning on empty corpus accepted")
	}
}

func TestSnapshotRestore(t *testing.T) {
	params := [][]float64{{1, 2}, {3}}
	saved := snapshot(params)
	params[0][0] = 99
	copyInto(params, saved)
	if params[0][0] != 1 {
		t.Errorf("copyInto of the snapshot failed: %v", params[0][0])
	}
	saved[1][0] = 7
	copyInto(saved, params)
	if saved[1][0] != 3 {
		t.Errorf("copyInto failed: %v", saved[1][0])
	}
}
