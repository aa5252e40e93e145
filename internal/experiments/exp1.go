package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/placement"
	"costream/internal/qerror"
	"costream/internal/scenario"
	"costream/internal/stream"
)

// Exp1Overall runs Exp 1 on the base test split (Table III): overall
// q-errors and accuracies, COSTREAM vs the flat-vector baseline.
func (s *Suite) Exp1Overall() (*Table, error) {
	_, _, test, err := s.BaseSplit()
	if err != nil {
		return nil, err
	}
	rows, err := s.compareRows("", test, core.AllMetrics(), 17)
	if err != nil {
		return nil, err
	}
	return exp1Table(rows), nil
}

func exp1Table(rows []Row) *Table {
	return &Table{Title: "[Exp 1 / Table III] Overall prediction accuracy on the test set", Rows: rows, line: metricLine}
}

// Exp1Hardware groups test-set predictions by the mean hardware features of
// each trace's cluster (Figure 7): one row per non-empty bucket, labelled
// with its dimension (cpu, ram, bandwidth, latency), holding bucketValues'
// values and upper_edge, the bucket's bound (the last bucket also takes
// every trace above it).
func (s *Suite) Exp1Hardware() (*Table, error) {
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
	var rows []Row
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
			edge := d.edges[b]
			vals, err := bucketValues(s.ensemblePredictor, fmt.Sprintf("%s <=%.0f", d.name, edge), traces)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{Label: d.name, Values: append(vals, Value{"upper_edge", edge}), N: len(traces)})
		}
	}
	return exp1HardwareTable(rows), nil
}

func exp1HardwareTable(rows []Row) *Table {
	return &Table{Title: "[Exp 1 / Figure 7] Prediction quality over hardware feature buckets", Rows: rows,
		line: func(r Row) string {
			return fmt.Sprintf("%-9s %-8s %s", r.Label, fmt.Sprintf("<=%.0f", r.Get("upper_edge")), bucketLine(r))
		}}
}

// bucketValues scores one group of traces for Figure 7 or 8 with each
// metric's predictor: the q-error p50 of every regression metric over the
// group's successful traces (throughput_q50, …), NaN when none succeeded,
// and the accuracy of every classification metric over all of them
// (backpressure_acc, success_acc). Any other failure is an error naming
// the group.
func bucketValues(pred func(core.Metric) (placement.Predictor, error), name string, traces []*dataset.Trace) ([]Value, error) {
	sub := &dataset.Corpus{Traces: traces}
	succeeded := slices.ContainsFunc(traces, func(tr *dataset.Trace) bool { return tr.Metrics.Success })
	var vals []Value
	for _, m := range core.AllMetrics() {
		p, err := pred(m)
		if err != nil {
			return nil, err
		}
		v, suffix := math.NaN(), "_q50"
		switch {
		case !m.IsRegression():
			suffix = "_acc"
			v, err = core.EvaluateClassification(p, sub, m)
		case succeeded:
			var sum qerror.Summary
			sum, err = core.EvaluateRegression(p, sub, m)
			v = sum.Median
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v: %w", name, m, err)
		}
		vals = append(vals, Value{strings.ReplaceAll(m.String(), "-", "_") + suffix, v})
	}
	return vals, nil
}

// bucketLine formats the columns Figures 7 and 8 share.
func bucketLine(r Row) string {
	return fmt.Sprintf("Q50(T)=%5.2f Q50(Lp)=%5.2f Q50(Le)=%5.2f accRO=%5.1f%% accS=%5.1f%% (n=%d)",
		r.Get("throughput_q50"), r.Get("proc_latency_q50"), r.Get("e2e_latency_q50"),
		100*r.Get("backpressure_acc"), 100*r.Get("success_acc"), r.N)
}

// Exp1QueryTypes evaluates the base models per query class on freshly
// generated in-distribution queries (Figure 8): one row per class.
func (s *Suite) Exp1QueryTypes() (*Table, error) {
	var rows []Row
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
		vals, err := bucketValues(s.ensemblePredictor, class.String(), eval.Traces)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Label: class.String(), Values: vals, N: eval.Len()})
	}
	return exp1QueryTypesTable(rows), nil
}

func exp1QueryTypesTable(rows []Row) *Table {
	return &Table{Title: "[Exp 1 / Figure 8] Prediction quality over query types", Rows: rows,
		line: func(r Row) string { return fmt.Sprintf("%-16s %s", r.Label, bucketLine(r)) }}
}
