package experiments

import (
	"fmt"
	"math"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/qerror"
	"costream/internal/scenario"
	"costream/internal/stream"
)

// Exp1Result reproduces Table III: overall q-errors and accuracies on the
// held-out test split, COSTREAM vs the flat-vector baseline.
type Exp1Result struct {
	Rows []MetricRow
}

// Exp1Overall runs Exp 1 on the base test split (Table III).
func (s *Suite) Exp1Overall() (*Exp1Result, error) {
	_, _, test, err := s.BaseSplit()
	if err != nil {
		return nil, err
	}
	rows, err := s.compareRows(test, core.AllMetrics(), 17)
	if err != nil {
		return nil, err
	}
	return &Exp1Result{Rows: rows}, nil
}

// Table renders the result.
func (r *Exp1Result) Table() *Table {
	t := &Table{Title: "[Exp 1 / Table III] Overall prediction accuracy on the test set"}
	for _, row := range r.Rows {
		t.Lines = append(t.Lines, row.format())
	}
	return t
}

// HardwareBucket is one group of Figure 7: test traces whose mean hardware
// feature falls into one grid bucket.
type HardwareBucket struct {
	Dimension string // cpu | ram | bandwidth | latency
	Label     string // bucket center, e.g. "400"
	N         int
	Q50T      float64 // throughput median q-error
	Q50Lp     float64
	Q50Le     float64
	AccRO     float64
	AccS      float64
}

// Exp1HardwareResult reproduces Figure 7.
type Exp1HardwareResult struct {
	Buckets []HardwareBucket
}

// Exp1Hardware groups test-set predictions by the mean hardware features of
// each trace's cluster (Figure 7).
func (s *Suite) Exp1Hardware() (*Exp1HardwareResult, error) {
	_, _, test, err := s.BaseSplit()
	if err != nil {
		return nil, err
	}
	dims := []struct {
		name    string
		edges   []float64
		extract func(tr *dataset.Trace) float64
	}{
		{"cpu", []float64{200, 400, 600, 900}, func(tr *dataset.Trace) float64 {
			c, _, _, _ := tr.Cluster.MeanFeatures()
			return c
		}},
		{"ram", []float64{4000, 12000, 24000, 40000}, func(tr *dataset.Trace) float64 {
			_, r, _, _ := tr.Cluster.MeanFeatures()
			return r
		}},
		{"bandwidth", []float64{400, 1600, 6400, 12000}, func(tr *dataset.Trace) float64 {
			_, _, b, _ := tr.Cluster.MeanFeatures()
			return b
		}},
		{"latency", []float64{10, 40, 80, 200}, func(tr *dataset.Trace) float64 {
			_, _, _, l := tr.Cluster.MeanFeatures()
			return l
		}},
	}
	res := &Exp1HardwareResult{}
	for _, d := range dims {
		groups := make([][]*dataset.Trace, len(d.edges))
		for _, tr := range test.Traces {
			v := d.extract(tr)
			for b, edge := range d.edges {
				if v <= edge || b == len(d.edges)-1 {
					groups[b] = append(groups[b], tr)
					break
				}
			}
		}
		for b, traces := range groups {
			if len(traces) == 0 {
				continue
			}
			bucket, err := s.evalBucket(traces)
			if err != nil {
				return nil, err
			}
			bucket.Dimension = d.name
			bucket.Label = fmt.Sprintf("<=%.0f", d.edges[b])
			res.Buckets = append(res.Buckets, bucket)
		}
	}
	return res, nil
}

func (s *Suite) evalBucket(traces []*dataset.Trace) (HardwareBucket, error) {
	sub := &dataset.Corpus{Traces: traces}
	bucket := HardwareBucket{N: len(traces)}
	for _, m := range []core.Metric{core.MetricThroughput, core.MetricProcLatency, core.MetricE2ELatency} {
		e, err := s.Ensemble(m)
		if err != nil {
			return bucket, err
		}
		sum, err := core.EvaluateRegression(e.Predictor(), sub, m)
		if err != nil {
			// A bucket can lack successful traces; mark as NaN.
			sum = qerror.Summary{Median: math.NaN()}
		}
		switch m {
		case core.MetricThroughput:
			bucket.Q50T = sum.Median
		case core.MetricProcLatency:
			bucket.Q50Lp = sum.Median
		case core.MetricE2ELatency:
			bucket.Q50Le = sum.Median
		}
	}
	for _, m := range []core.Metric{core.MetricBackpressure, core.MetricSuccess} {
		e, err := s.Ensemble(m)
		if err != nil {
			return bucket, err
		}
		acc, err := core.EvaluateClassification(e.Predictor(), sub, m)
		if err != nil {
			acc = math.NaN()
		}
		if m == core.MetricBackpressure {
			bucket.AccRO = acc
		} else {
			bucket.AccS = acc
		}
	}
	return bucket, nil
}

// Table renders Figure 7 as rows.
func (r *Exp1HardwareResult) Table() *Table {
	t := &Table{Title: "[Exp 1 / Figure 7] Prediction quality over hardware feature buckets"}
	for _, b := range r.Buckets {
		t.Lines = append(t.Lines, fmt.Sprintf(
			"%-9s %-8s Q50(T)=%5.2f Q50(Lp)=%5.2f Q50(Le)=%5.2f accRO=%5.1f%% accS=%5.1f%% (n=%d)",
			b.Dimension, b.Label, b.Q50T, b.Q50Lp, b.Q50Le, 100*b.AccRO, 100*b.AccS, b.N))
	}
	return t
}

// QueryTypeRow is one group of Figure 8.
type QueryTypeRow struct {
	Class string
	N     int
	Q50T  float64
	Q50Lp float64
	Q50Le float64
	AccRO float64
	AccS  float64
}

// Exp1QueryTypesResult reproduces Figure 8.
type Exp1QueryTypesResult struct {
	Rows []QueryTypeRow
}

// Exp1QueryTypes evaluates the base models per query class on freshly
// generated in-distribution queries (Figure 8).
func (s *Suite) Exp1QueryTypes() (*Exp1QueryTypesResult, error) {
	res := &Exp1QueryTypesResult{}
	classes := []stream.QueryClass{
		stream.ClassLinear, stream.ClassLinearAgg,
		stream.ClassTwoWayJoin, stream.ClassTwoWayJoinAgg,
		stream.ClassThreeWayJoin, stream.ClassThreeWayJoinAgg,
	}
	for ci, class := range classes {
		class := class
		eval, err := s.corpus("querytype/"+class.String(), func() (*dataset.Corpus, error) {
			cfg := scenario.QueryClassConfig(s.evalN(), 3000+int64(ci), class)
			cfg.Sim = s.simConfig()
			return dataset.Build(cfg)
		})
		if err != nil {
			return nil, err
		}
		row := QueryTypeRow{Class: class.String(), N: eval.Len()}
		bucket, err := s.evalBucket(eval.Traces)
		if err != nil {
			return nil, err
		}
		row.Q50T, row.Q50Lp, row.Q50Le = bucket.Q50T, bucket.Q50Lp, bucket.Q50Le
		row.AccRO, row.AccS = bucket.AccRO, bucket.AccS
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders Figure 8 as rows.
func (r *Exp1QueryTypesResult) Table() *Table {
	t := &Table{Title: "[Exp 1 / Figure 8] Prediction quality over query types"}
	for _, row := range r.Rows {
		t.Lines = append(t.Lines, fmt.Sprintf(
			"%-16s Q50(T)=%5.2f Q50(Lp)=%5.2f Q50(Le)=%5.2f accRO=%5.1f%% accS=%5.1f%% (n=%d)",
			row.Class, row.Q50T, row.Q50Lp, row.Q50Le, 100*row.AccRO, 100*row.AccS, row.N))
	}
	return t
}
