package core

import (
	"encoding/json"
	"fmt"

	"costream/internal/gnn"
)

// ParseMetric maps a metric name (as produced by Metric.String) back to
// the metric, for CLI flags and serialized model files.
func ParseMetric(name string) (Metric, error) {
	for _, m := range AllMetrics() {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown metric %q (want one of throughput, proc-latency, e2e-latency, backpressure, success)", name)
}

// ParseFeatureMode maps a featurization-mode name (as produced by
// FeatureMode.String) back to the mode.
func ParseFeatureMode(name string) (FeatureMode, error) {
	for _, m := range []FeatureMode{FeatFull, FeatPlacementOnly, FeatQueryOnly} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown feature mode %q (want full, placement-only or query-only)", name)
}

// costModelJSON is the serialized form of a CostModel: the metric it was
// trained for, the featurization that produced its input graphs (the
// normalization constants are fixed, so the mode fully determines the
// featurizer), and the GNN weights.
type costModelJSON struct {
	Metric      string     `json:"metric"`
	FeatureMode string     `json:"feature_mode"`
	Net         *gnn.Model `json:"net"`
}

// MarshalJSON encodes the cost model with its featurizer configuration.
func (cm *CostModel) MarshalJSON() ([]byte, error) {
	if cm.Net == nil {
		return nil, fmt.Errorf("core: cost model for %v has no network", cm.Metric)
	}
	return json.Marshal(costModelJSON{
		Metric:      cm.Metric.String(),
		FeatureMode: cm.Feat.Mode.String(),
		Net:         cm.Net,
	})
}

// UnmarshalJSON decodes a cost model written by MarshalJSON.
func (cm *CostModel) UnmarshalJSON(data []byte) error {
	var j costModelJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	metric, err := ParseMetric(j.Metric)
	if err != nil {
		return err
	}
	mode, err := ParseFeatureMode(j.FeatureMode)
	if err != nil {
		return err
	}
	if j.Net == nil {
		return fmt.Errorf("core: cost model for %v is missing its network", metric)
	}
	cm.Metric = metric
	cm.Feat = Featurizer{Mode: mode}
	cm.Net = j.Net
	return nil
}

// ensembleJSON is the serialized form of an Ensemble.
type ensembleJSON struct {
	Metric  string       `json:"metric"`
	Members []*CostModel `json:"members"`
}

// MarshalJSON encodes the ensemble with all member models.
func (e *Ensemble) MarshalJSON() ([]byte, error) {
	return json.Marshal(ensembleJSON{Metric: e.Metric.String(), Members: e.Models})
}

// UnmarshalJSON decodes an ensemble, checking member consistency.
func (e *Ensemble) UnmarshalJSON(data []byte) error {
	var j ensembleJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	metric, err := ParseMetric(j.Metric)
	if err != nil {
		return err
	}
	if len(j.Members) == 0 {
		return fmt.Errorf("core: ensemble for %v has no members", metric)
	}
	for i, m := range j.Members {
		if m == nil {
			return fmt.Errorf("core: ensemble for %v: member %d is null", metric, i)
		}
		if m.Metric != metric {
			return fmt.Errorf("core: ensemble for %v: member %d was trained for %v", metric, i, m.Metric)
		}
	}
	e.Metric = metric
	e.Models = j.Members
	// Any previously cached weight stack refers to the old members;
	// rebuild eagerly so load time, not first-predict latency, pays for
	// stacking, and an ensemble that cannot be served is refused here.
	e.Invalidate()
	_, err = e.stacked()
	return err
}

// predictorJSON is the serialized form of a Predictor. Slots for untrained
// metrics are omitted, matching in-memory nil ensembles.
type predictorJSON struct {
	Throughput   *Ensemble `json:"throughput,omitempty"`
	ProcLatency  *Ensemble `json:"proc_latency,omitempty"`
	E2ELatency   *Ensemble `json:"e2e_latency,omitempty"`
	Backpressure *Ensemble `json:"backpressure,omitempty"`
	Success      *Ensemble `json:"success,omitempty"`
}

// MarshalJSON encodes all trained ensembles of the predictor.
func (pr *Predictor) MarshalJSON() ([]byte, error) {
	return json.Marshal(predictorJSON{
		Throughput:   pr.Throughput,
		ProcLatency:  pr.ProcLatency,
		E2ELatency:   pr.E2ELatency,
		Backpressure: pr.Backpressure,
		Success:      pr.Success,
	})
}

// UnmarshalJSON decodes a predictor, checking that every present ensemble
// sits in the slot of its own metric and that at least one is present.
func (pr *Predictor) UnmarshalJSON(data []byte) error {
	var j predictorJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	decoded := Predictor{
		Throughput:   j.Throughput,
		ProcLatency:  j.ProcLatency,
		E2ELatency:   j.E2ELatency,
		Backpressure: j.Backpressure,
		Success:      j.Success,
	}
	present := 0
	for _, s := range decoded.Ensembles() {
		if s.Ensemble == nil {
			continue
		}
		present++
		if s.Ensemble.Metric != s.Metric {
			return fmt.Errorf("core: predictor slot %v holds an ensemble trained for %v", s.Metric, s.Ensemble.Metric)
		}
	}
	if present == 0 {
		return fmt.Errorf("core: predictor has no trained ensembles")
	}
	*pr = decoded
	return nil
}
