package experiments

import (
	"fmt"
	"sync/atomic"

	"costream/internal/core"
)

// AblationRow is one bar of Figure 12 or 13.
type AblationRow struct {
	Variant string
	Metric  string
	Q50     float64
	Q95     float64
}

// Exp7aResult reproduces Figure 12: featurization ablation for E2E latency.
type Exp7aResult struct {
	Rows []AblationRow
}

// Exp7aFeatureAblation trains the E2E-latency model under the three
// featurization schemes of Figure 12: query nodes only, +placement
// structure (hardware-blind), and the full featurization. The three fits
// run at once; rows stay in variant order.
func (s *Suite) Exp7aFeatureAblation() (*Exp7aResult, error) {
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
	res := &Exp7aResult{Rows: make([]AblationRow, len(variants))}
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
		res.Rows[vi] = AblationRow{
			Variant: v.name, Metric: core.MetricE2ELatency.String(),
			Q50: sum.Median, Q95: sum.P95,
		}
		s.Logf("exp7a %s done", v.name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders Figure 12.
func (r *Exp7aResult) Table() *Table {
	t := &Table{Title: "[Exp 7a / Figure 12] Featurization ablation (E2E latency)"}
	for _, row := range r.Rows {
		t.Lines = append(t.Lines, fmt.Sprintf("%-30s Q50=%6.2f Q95=%8.2f", row.Variant, row.Q50, row.Q95))
	}
	return t
}

// Exp7bResult reproduces Figure 13: message passing scheme ablation.
type Exp7bResult struct {
	Rows []AblationRow
}

// Exp7bMessagePassing compares the paper's directed three-phase message
// passing against a traditional undirected scheme on the three regression
// metrics (Figure 13). The six fits run at once; rows stay in metric
// order, ours before traditional, and a metric logs when both are done.
func (s *Suite) Exp7bMessagePassing() (*Exp7bResult, error) {
	train, val, test, err := s.BaseSplit()
	if err != nil {
		return nil, err
	}
	metrics := []core.Metric{core.MetricE2ELatency, core.MetricProcLatency, core.MetricThroughput}
	res := &Exp7bResult{Rows: make([]AblationRow, 2*len(metrics))}
	left := make([]atomic.Int32, len(metrics))
	for mi := range left {
		left[mi].Store(2)
	}
	err = each(len(res.Rows), func(k int) error {
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
		res.Rows[k] = AblationRow{
			Variant: name, Metric: m.String(),
			Q50: sum.Median, Q95: sum.P95,
		}
		if left[mi].Add(-1) == 0 {
			s.Logf("exp7b %v done", m)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders Figure 13.
func (r *Exp7bResult) Table() *Table {
	t := &Table{Title: "[Exp 7b / Figure 13] Message passing ablation"}
	for _, row := range r.Rows {
		t.Lines = append(t.Lines, fmt.Sprintf("%-13s %-13s Q50=%6.2f Q95=%8.2f",
			row.Metric, row.Variant, row.Q50, row.Q95))
	}
	return t
}
