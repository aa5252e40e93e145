package core

import (
	"runtime"
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

// TestFeaturizeCorpusOrderAndFirstError: the pooled featurization keeps
// corpus order, and when several traces fail it returns the error of the
// lowest-indexed one, whatever order they finished in.
func TestFeaturizeCorpusOrderAndFirstError(t *testing.T) {
	c := &dataset.Corpus{}
	for range 12 {
		c.Traces = append(c.Traces, fakeTrace(t, true, false))
	}
	for i, tr := range c.Traces {
		tr.Metrics.ThroughputTPS = float64(i)
	}
	bad := &dataset.Corpus{Traces: append([]*dataset.Trace(nil), c.Traces...)}
	noCluster, badPlacement := *c.Traces[3], *c.Traces[7]
	noCluster.Cluster = nil
	badPlacement.Placement = sim.Placement{0, 5}
	bad.Traces[3], bad.Traces[7] = &noCluster, &badPlacement
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			recs, err := featurizeCorpus(&Featurizer{}, c)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range recs {
				if r.met.ThroughputTPS != float64(i) {
					t.Fatalf("GOMAXPROCS=%d: record %d holds trace %v", procs, i, r.met.ThroughputTPS)
				}
			}
			_, err = featurizeCorpus(&Featurizer{}, bad)
			if want := "core: cluster required for full featurization"; err == nil || err.Error() != want {
				t.Errorf("GOMAXPROCS=%d: err = %v, want trace 3's %q", procs, err, want)
			}
		}()
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
