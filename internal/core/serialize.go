package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

// Section describes one trained ensemble's weight section in a model
// artifact. The section holds the Members members back to back, each its
// gnn.Model.Params slices in order, every weight little-endian
// math.Float64bits. The featurizer's normalization constants are fixed, so
// the mode fully determines it.
type Section struct {
	Metric      string     `json:"metric"`
	FeatureMode string     `json:"feature_mode"`
	Config      gnn.Config `json:"config"`
	Members     int        `json:"members"`
	Bytes       int        `json:"bytes"`
}

// Sections describes the predictor's trained ensembles in Metric order.
// It refuses what DecodePredictor would: a predictor with no trained
// ensemble, an ensemble that cannot run the packed kernel, ensembles
// featurized in different modes, or a non-finite weight, naming the
// metrics and the member.
func (pr *Predictor) Sections() ([]Section, error) {
	mode, err := featureMode(pr.ensembles())
	if err != nil {
		return nil, err
	}
	var secs []Section
	for _, e := range pr.ensembles() {
		for i, m := range e.Models {
			if err := finiteWeights(m.Net, e.Metric, i); err != nil {
				return nil, err
			}
		}
		net := e.Models[0].Net
		secs = append(secs, Section{Metric: e.Metric.String(), FeatureMode: mode.String(),
			Config: net.Config(), Members: len(e.Models), Bytes: 8 * net.NumParams() * len(e.Models)})
	}
	if len(secs) == 0 {
		return nil, fmt.Errorf("core: predictor has no trained ensembles")
	}
	return secs, nil
}

// WriteWeights writes the weight sections Sections describes to w, in the
// same order.
func (pr *Predictor) WriteWeights(w io.Writer) error {
	var buf []byte
	for _, e := range pr.ensembles() {
		for _, m := range e.Models {
			for _, p := range m.Net.Params() {
				buf = buf[:0]
				for _, v := range p {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
				}
				if _, err := w.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// DecodePredictor builds the predictor that secs describe from body, their
// weight sections back to back. Every section's length is checked against
// its config before any member is built; each member is built with
// gnn.NewZero and filled from its bytes, a non-finite weight is refused
// naming the metric and the member, and every ensemble is stacked, and
// checked to share the others' featurization mode, before it returns.
func DecodePredictor(secs []Section, body []byte) (*Predictor, error) {
	pr := &Predictor{}
	last := Metric(-1)
	for _, s := range secs {
		metric, err := ParseMetric(s.Metric)
		if err != nil {
			return nil, err
		}
		if metric <= last {
			return nil, fmt.Errorf("core: %v section out of order or repeated", metric)
		}
		last = metric
		mode, err := ParseFeatureMode(s.FeatureMode)
		if err != nil {
			return nil, err
		}
		n, err := s.Config.NumParams()
		if err != nil {
			return nil, fmt.Errorf("core: %v section: %w", metric, err)
		}
		if s.Members <= 0 || s.Bytes%(8*n) != 0 || s.Bytes/(8*n) != s.Members {
			return nil, fmt.Errorf("core: %v section holds %d bytes, its config needs %d members x %d weights x 8", metric, s.Bytes, s.Members, n)
		}
		if s.Bytes > len(body) {
			return nil, fmt.Errorf("core: %v section truncated: %d of %d bytes", metric, len(body), s.Bytes)
		}
		e := &Ensemble{Metric: metric}
		for i := range s.Members {
			net, err := gnn.NewZero(s.Config)
			if err != nil {
				return nil, err
			}
			for _, p := range net.Params() {
				for j := range p {
					p[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*j:]))
				}
				body = body[8*len(p):]
			}
			if err := finiteWeights(net, metric, i); err != nil {
				return nil, err
			}
			e.Models = append(e.Models, &CostModel{Metric: metric, Feat: Featurizer{Mode: mode}, Net: net})
		}
		pr[metric] = e
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("core: %d bytes after the last weight section", len(body))
	}
	if last < 0 {
		return nil, fmt.Errorf("core: predictor has no trained ensembles")
	}
	if _, err := featureMode(pr.ensembles()); err != nil {
		return nil, err
	}
	return pr, nil
}

// finiteWeights refuses a network holding a NaN or infinite weight.
func finiteWeights(net *gnn.Model, metric Metric, member int) error {
	for _, p := range net.Params() {
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: %v ensemble member %d has a non-finite weight %v", metric, member, v)
			}
		}
	}
	return nil
}
