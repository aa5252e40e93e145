package core

import (
	"fmt"

	"costream/internal/gnn"
)

// ensembleStack is the one-pass form of an Ensemble, built on first use:
// the members' GNN weights vertically stacked for gnn.InferEnsembleBatch,
// plus the featurization mode they share. The packed kernel is an
// ensemble's only inference path, so members that cannot stack — mixed
// featurization modes (Exp 7a ablations), traditional message passing
// (Exp 7b), mismatched widths — leave sm nil and err saying why. The tape
// (CostModel.PredictRaw) is the scalar oracle every stack is tested
// against.
type ensembleStack struct {
	sm   *gnn.StackedModel
	mode FeatureMode
	err  error
}

// stacked returns the ensemble's stack, building it on first use, or an
// error naming the metric when the members cannot stack. The build copies
// the member weights, so a weight changed in place later — by
// CostModel.FineTune, say — never reaches the stack; fine-tune a clone.
func (e *Ensemble) stacked() (*ensembleStack, error) {
	e.stackOnce.Do(func() { e.stack = e.buildStack() })
	if e.stack.err != nil {
		return nil, fmt.Errorf("core: %v ensemble cannot run the packed kernel: %w", e.Metric, e.stack.err)
	}
	return e.stack, nil
}

func (e *Ensemble) buildStack() *ensembleStack {
	st := &ensembleStack{}
	if len(e.Models) == 0 {
		st.err = fmt.Errorf("no members")
		return st
	}
	st.mode = e.Models[0].Feat.Mode
	nets := make([]*gnn.Model, len(e.Models))
	for i, m := range e.Models {
		switch {
		case m.Net == nil:
			st.err = fmt.Errorf("member %d has no network", i)
		case m.Feat.Mode != st.mode:
			st.err = fmt.Errorf("member %d is featurized %v, member 0 %v", i, m.Feat.Mode, st.mode)
		}
		if st.err != nil {
			return st
		}
		nets[i] = m.Net
	}
	st.sm, st.err = gnn.Stack(nets)
	return st
}

// featureMode returns the featurization mode a predictor's ensembles
// share, so that a scoring session featurizes and packs each tile once.
// An ensemble that cannot stack is its error; one featurized unlike the
// first is an error naming both metrics and modes.
func featureMode(ensembles []*Ensemble) (FeatureMode, error) {
	var mode FeatureMode
	for i, e := range ensembles {
		st, err := e.stacked()
		switch {
		case err != nil:
			return 0, err
		case i == 0:
			mode = st.mode
		case st.mode != mode:
			return 0, fmt.Errorf("core: %v ensemble is featurized %v, %v ensemble %v: a predictor's ensembles share one featurization mode",
				e.Metric, st.mode, ensembles[0].Metric, mode)
		}
	}
	return mode, nil
}

// meanOf folds transformed member outputs into the ensemble's regression
// estimate (mean, in member order — matching the historical accumulation
// exactly).
func meanOf(out []float64) float64 {
	var sum float64
	for _, v := range out {
		sum += v
	}
	return sum / float64(len(out))
}

// voteOf folds transformed member outputs into the majority label.
func voteOf(out []float64) bool {
	votes := 0
	for _, v := range out {
		if v > 0.5 {
			votes++
		}
	}
	return votes*2 > len(out)
}
