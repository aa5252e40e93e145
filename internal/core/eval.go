package core

import (
	"fmt"

	"costream/internal/dataset"
	"costream/internal/qerror"
)

// TracePredictor predicts a scalar for a stored trace: a raw cost value
// for regression metrics or a positive-class score in [0,1] for binary
// metrics. CostModel, Ensemble and the flat-vector baseline satisfy it.
type TracePredictor interface {
	PredictTrace(tr *dataset.Trace) (float64, error)
}

// EvaluateRegression computes q-error quantiles of the predictor against
// the measured metric over the source's successful traces, streaming:
// memory stays O(predictions), never O(traces), so corpus stores
// evaluate without materializing.
func EvaluateRegression(p TracePredictor, src dataset.Source, metric Metric) (qerror.Summary, error) {
	if !metric.IsRegression() {
		return qerror.Summary{}, fmt.Errorf("core: %v is not a regression metric", metric)
	}
	var truths, preds []float64
	err := src.Iter(func(i int, tr *dataset.Trace) error {
		if !tr.Metrics.Success {
			return nil
		}
		v, err := p.PredictTrace(tr)
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
func EvaluateClassification(p TracePredictor, src dataset.Source, metric Metric) (float64, error) {
	if metric.IsRegression() {
		return 0, fmt.Errorf("core: %v is not a classification metric", metric)
	}
	var truths, preds []bool
	err := src.Iter(func(i int, tr *dataset.Trace) error {
		score, err := p.PredictTrace(tr)
		if err != nil {
			return err
		}
		truths = append(truths, metric.Label(tr.Metrics))
		preds = append(preds, score > 0.5)
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
func EvaluateClassificationBalanced(p TracePredictor, src dataset.Source, metric Metric, seed int64) (acc float64, n int, err error) {
	if metric.IsRegression() {
		return 0, 0, fmt.Errorf("core: %v is not a classification metric", metric)
	}
	labels := make([]bool, 0, src.Count())
	err = src.Iter(func(i int, tr *dataset.Trace) error {
		labels = append(labels, metric.Label(tr.Metrics))
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	idx := dataset.BalancedIndices(labels, seed)
	if len(idx) == 0 {
		acc, err = EvaluateClassification(p, src, metric)
		return acc, len(labels), err
	}
	keep := make(map[int]bool, len(idx))
	for _, j := range idx {
		keep[j] = true
	}
	var truths, preds []bool
	err = src.Iter(func(i int, tr *dataset.Trace) error {
		if !keep[i] {
			return nil
		}
		score, err := p.PredictTrace(tr)
		if err != nil {
			return err
		}
		truths = append(truths, metric.Label(tr.Metrics))
		preds = append(preds, score > 0.5)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	acc, err = qerror.Accuracy(truths, preds)
	return acc, len(idx), err
}
