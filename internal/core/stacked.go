package core

import (
	"fmt"

	"costream/internal/gnn"
)

// ensembleStack is the cached one-pass form of an Ensemble: the members'
// GNN weights vertically stacked for gnn.InferEnsembleBatch, plus the
// featurization mode they share. The packed kernel is an ensemble's only
// inference path, so members that cannot stack — mixed featurization
// modes (Exp 7a ablations), traditional message passing (Exp 7b),
// mismatched widths — leave sm nil and err saying why. The tape
// (CostModel.PredictRaw) is the scalar oracle every stack is tested
// against.
type ensembleStack struct {
	sm   *gnn.StackedModel
	mode FeatureMode
	err  error
}

// stacked returns the ensemble's cached stack, building it on first use,
// or an error naming the metric when the members cannot stack. The build
// copies the member weights, so the stack must be dropped (Invalidate)
// whenever a member's weights change in place, as fine-tuning via
// CostModel.FineTune does.
func (e *Ensemble) stacked() (*ensembleStack, error) {
	st := e.stack.Load()
	if st == nil {
		e.stackMu.Lock()
		if st = e.stack.Load(); st == nil {
			st = e.buildStack()
			e.stack.Store(st)
		}
		e.stackMu.Unlock()
	}
	if st.err != nil {
		return nil, fmt.Errorf("core: %v ensemble cannot run the packed kernel: %w", e.Metric, st.err)
	}
	return st, nil
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

// Invalidate drops the cached weight stack; the next prediction rebuilds
// it from the members' current weights. Call it after mutating any
// member in place (e.g. CostModel.FineTune).
func (e *Ensemble) Invalidate() {
	e.stack.Store(nil)
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
