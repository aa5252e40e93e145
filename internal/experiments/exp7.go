package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"

	"costream/internal/core"
	"costream/internal/qerror"
)

// Exp7aFeatureAblation trains the E2E-latency model under the three
// featurization schemes of Figure 12: query nodes only, +placement
// structure (hardware-blind), and the full featurization. The three fits
// run at once; rows stay in variant order. Each row is one variant's
// test-set q50 and q95.
func (s *Suite) Exp7aFeatureAblation() (*Table, error) {
	train, val, test, err := s.BaseSplit()
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mode core.FeatureMode
	}{
		{"query nodes only", core.FeatQueryOnly},
		{"+ placement (hardware-blind)", core.FeatPlacementOnly},
		{"full featurization", core.FeatFull},
	}
	rows := make([]Row, len(variants))
	err = each(len(variants), func(vi int) error {
		v := variants[vi]
		cfg := s.smallTrainConfig(7100 + int64(vi))
		cfg.Mode = v.mode
		model, err := core.Train(train, val, core.MetricE2ELatency, cfg)
		if err != nil {
			return err
		}
		sum, err := core.EvaluateRegression(model, test, core.MetricE2ELatency)
		if err != nil {
			return err
		}
		rows[vi] = ablationRow(v.name, sum)
		s.Logf("exp7a %s done", v.name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return exp7aTable(rows), nil
}

func ablationRow(label string, sum qerror.Summary) Row {
	return Row{Label: label, N: sum.N, Values: []Value{{"q50", sum.Median}, {"q95", sum.P95}}}
}

func exp7aTable(rows []Row) *Table {
	return &Table{Title: "[Exp 7a / Figure 12] Featurization ablation (E2E latency)", Rows: rows,
		line: func(r Row) string {
			return fmt.Sprintf("%-30s Q50=%6.2f Q95=%8.2f", r.Label, r.Get("q50"), r.Get("q95"))
		}}
}

// Exp7bMessagePassing compares the paper's directed three-phase message
// passing against a traditional undirected scheme on the three regression
// metrics (Figure 13). The six fits run at once; rows stay in metric
// order, ours before traditional, and a metric logs when both are done.
// A row is labelled "<metric> <scheme>" (e2e-latency ours, …).
func (s *Suite) Exp7bMessagePassing() (*Table, error) {
	train, val, test, err := s.BaseSplit()
	if err != nil {
		return nil, err
	}
	metrics := []core.Metric{core.MetricE2ELatency, core.MetricProcLatency, core.MetricThroughput}
	rows := make([]Row, 2*len(metrics))
	left := make([]atomic.Int32, len(metrics))
	for mi := range left {
		left[mi].Store(2)
	}
	err = each(len(rows), func(k int) error {
		mi, trad := k/2, k%2 == 1
		m := metrics[mi]
		cfg := s.smallTrainConfig(7200 + int64(mi)*10)
		cfg.Traditional = trad
		model, err := core.Train(train, val, m, cfg)
		if err != nil {
			return err
		}
		sum, err := core.EvaluateRegression(model, test, m)
		if err != nil {
			return err
		}
		name := "ours"
		if trad {
			name = "traditional"
		}
		rows[k] = ablationRow(m.String()+" "+name, sum)
		if left[mi].Add(-1) == 0 {
			s.Logf("exp7b %v done", m)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return exp7bTable(rows), nil
}

func exp7bTable(rows []Row) *Table {
	return &Table{Title: "[Exp 7b / Figure 13] Message passing ablation", Rows: rows,
		line: func(r Row) string {
			metric, scheme, _ := strings.Cut(r.Label, " ")
			return fmt.Sprintf("%-13s %-13s Q50=%6.2f Q95=%8.2f", metric, scheme, r.Get("q50"), r.Get("q95"))
		}}
}
