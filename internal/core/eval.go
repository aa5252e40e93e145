package core

import (
	"fmt"

	"costream/internal/dataset"
	"costream/internal/placement"
	"costream/internal/qerror"
	"costream/internal/sim"
)

// predictTrace predicts the metric for a stored trace: a tile of one on a
// session of its own, over the trace's query and cluster analysed and
// checked here, that asks only for the metric's cost, so a predictor runs
// the evaluated metric's model and no other. It returns the value of a
// regression metric or the label of a binary one.
func predictTrace(p placement.Predictor, tr *dataset.Trace, metric Metric) (value float64, label bool, err error) {
	a, k, err := placement.Check(tr.Query, tr.Cluster)
	if err != nil {
		return 0, false, err
	}
	sess, err := p.NewScoreSession(a, k)
	if err != nil {
		return 0, false, err
	}
	var out [1]placement.PredCosts
	if err := sess.ScoreTile([]sim.Placement{tr.Placement}, metric.Cost(), out[:]); err != nil {
		return 0, false, err
	}
	v, l := metric.Field(&out[0])
	if v != nil {
		return *v, false, nil
	}
	return 0, *l, nil
}

// EvaluateRegression computes q-error quantiles of the predictor against
// the measured metric over the source's successful traces, streaming:
// memory stays O(predictions), never O(traces), so corpus stores
// evaluate without materializing.
func EvaluateRegression(p placement.Predictor, src dataset.Source, metric Metric) (qerror.Summary, error) {
	if !metric.IsRegression() {
		return qerror.Summary{}, fmt.Errorf("core: %v is not a regression metric", metric)
	}
	var truths, preds []float64
	err := src.Iter(func(i int, tr *dataset.Trace) error {
		if !tr.Metrics.Success {
			return nil
		}
		v, _, err := predictTrace(p, tr, metric)
		if err != nil {
			return err
		}
		truths = append(truths, metric.Value(tr.Metrics))
		preds = append(preds, v)
		return nil
	})
	if err != nil {
		return qerror.Summary{}, err
	}
	return qerror.Summarize(truths, preds)
}

// EvaluateClassification computes accuracy of the predictor for a binary
// metric over the source, streaming. Balance first (see
// EvaluateClassificationBalanced) to match the paper's reporting.
func EvaluateClassification(p placement.Predictor, src dataset.Source, metric Metric) (float64, error) {
	if metric != MetricBackpressure && metric != MetricSuccess {
		return 0, fmt.Errorf("core: %v is not a classification metric", metric)
	}
	return classify(p, src, metric, nil)
}

// classify computes the predictor's accuracy for a binary metric over the
// source's traces whose index keep holds, or over all of them for a nil
// keep.
func classify(p placement.Predictor, src dataset.Source, metric Metric, keep map[int]bool) (float64, error) {
	var truths, preds []bool
	err := src.Iter(func(i int, tr *dataset.Trace) error {
		if keep != nil && !keep[i] {
			return nil
		}
		_, label, err := predictTrace(p, tr, metric)
		if err != nil {
			return err
		}
		truths = append(truths, metric.Label(tr.Metrics))
		preds = append(preds, label)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return qerror.Accuracy(truths, preds)
}

// EvaluateClassificationBalanced evaluates accuracy on a label-balanced
// subset selected by index, streaming the source twice: a cheap first
// pass collects labels, then only the balanced subset is predicted. The
// subset matches Corpus.Balanced with the same seed. The returned count
// is the balanced subset size; when one class is absent the whole source
// is evaluated unbalanced (count = source size), as the experiment suite
// falls back to.
func EvaluateClassificationBalanced(p placement.Predictor, src dataset.Source, metric Metric, seed int64) (acc float64, n int, err error) {
	if metric != MetricBackpressure && metric != MetricSuccess {
		return 0, 0, fmt.Errorf("core: %v is not a classification metric", metric)
	}
	labels := make([]bool, 0, src.Len())
	err = src.Iter(func(i int, tr *dataset.Trace) error {
		labels = append(labels, metric.Label(tr.Metrics))
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	idx := dataset.BalancedIndices(labels, seed)
	if len(idx) == 0 {
		acc, err = classify(p, src, metric, nil)
		return acc, len(labels), err
	}
	keep := make(map[int]bool, len(idx))
	for _, j := range idx {
		keep[j] = true
	}
	acc, err = classify(p, src, metric, keep)
	return acc, len(idx), err
}
