package experiments

import (
	"bytes"
	"strings"
	"testing"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// constPredictor predicts the raw value v for every metric of every
// trace: v itself as a cost, and the positive class for v above 0.5.
func constPredictor(v float64) placement.Predictor {
	return placement.PredictorFunc(func(*stream.Query, *hardware.Cluster, sim.Placement) (placement.PredCosts, error) {
		var costs placement.PredCosts
		for _, m := range core.AllMetrics() {
			m.SetRaw(&costs, v)
		}
		return costs, nil
	})
}

func fakeCorpus(n int, throughput float64, backpressured bool) *dataset.Corpus {
	c := &dataset.Corpus{}
	for i := 0; i < n; i++ {
		bp := backpressured
		if i%2 == 0 {
			bp = !bp
		}
		c.Traces = append(c.Traces, &dataset.Trace{
			Metrics: &sim.Metrics{
				ThroughputTPS: throughput,
				ProcLatencyMS: 10,
				E2ELatencyMS:  20,
				Success:       true,
				Backpressured: bp,
			},
		})
	}
	return c
}

func TestCompareOnRegression(t *testing.T) {
	c := fakeCorpus(10, 100, false)
	row, err := compareOn(constPredictor(100), constPredictor(50), c, core.MetricThroughput, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.CoQ50 != 1 {
		t.Errorf("perfect predictor Q50 = %v, want 1", row.CoQ50)
	}
	if row.FlQ50 != 2 {
		t.Errorf("half predictor Q50 = %v, want 2", row.FlQ50)
	}
	if !row.IsRegression {
		t.Error("throughput row must be regression")
	}
}

func TestCompareOnClassificationBalances(t *testing.T) {
	c := fakeCorpus(10, 100, false) // alternating backpressure labels
	row, err := compareOn(constPredictor(1), constPredictor(0), c, core.MetricBackpressure, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Always-positive and always-negative predictors both score 50% on a
	// balanced set.
	if row.CoAcc != 0.5 || row.FlAcc != 0.5 {
		t.Errorf("accuracies = %v / %v, want 0.5 / 0.5", row.CoAcc, row.FlAcc)
	}
	if row.N != 10 {
		t.Errorf("balanced N = %d, want 10", row.N)
	}
}

func TestMetricRowFormats(t *testing.T) {
	reg := MetricRow{Metric: "throughput", IsRegression: true, CoQ50: 1.2, CoQ95: 3.4, FlQ50: 9.9, FlQ95: 100, N: 5}
	if s := reg.format(); !strings.Contains(s, "Q50") || !strings.Contains(s, "throughput") {
		t.Errorf("bad regression row format: %q", s)
	}
	cls := MetricRow{Metric: "success", CoAcc: 0.9, FlAcc: 0.7, N: 5}
	if s := cls.format(); !strings.Contains(s, "acc") {
		t.Errorf("bad classification row format: %q", s)
	}
}

func TestTableWriteText(t *testing.T) {
	tab := &Table{Title: "Demo", Lines: []string{"a", "b"}}
	var buf bytes.Buffer
	tab.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "a\nb\n") {
		t.Errorf("unexpected rendering: %q", out)
	}
}

func TestScaledFloors(t *testing.T) {
	s := NewSuite(0.0001)
	if got := s.scaled(2400, 300); got != 300 {
		t.Errorf("scaled floor = %d, want 300", got)
	}
	s2 := NewSuite(2)
	if got := s2.scaled(100, 40); got != 200 {
		t.Errorf("scaled 2x = %d, want 200", got)
	}
	if NewSuite(-1).Scale != 1 {
		t.Error("non-positive scale must default to 1")
	}
}
