package core

import (
	"costream/internal/gnn"
	"costream/internal/nn"
)

// tileKernel is an ensemble's weight stack at one precision: a
// *gnn.StackedModel[float64], or [float32] under SetFast32.
type tileKernel interface {
	K() int
	Hidden() int
	InferEnsembleBatch(pg *gnn.PackedGraphs, s *gnn.BatchScratch, out []float64) error
}

// ensembleStack is the cached one-pass form of an Ensemble: the members'
// GNN weights vertically stacked for gnn.InferEnsembleBatch at the
// precision fast32 names, plus the featurization mode they share. sm is
// nil when the members cannot be stacked — mixed featurization modes
// (Exp 7a ablations) or traditional message passing (Exp 7b) — in which
// case every prediction takes the per-member fallback path.
type ensembleStack struct {
	sm     tileKernel
	mode   FeatureMode
	fast32 bool
}

// stacked returns the ensemble's cached stack, building it on first use
// and again when SetFast32 has changed the precision since. The build
// copies the member weights, so the stack must be dropped (Invalidate)
// whenever a member's weights change in place — fine-tuning via
// CostModel.FineTune or artifact reload both do.
func (e *Ensemble) stacked() *ensembleStack {
	fast32 := e.fast32.Load()
	if st := e.stack.Load(); st != nil && st.fast32 == fast32 {
		return st
	}
	e.stackMu.Lock()
	defer e.stackMu.Unlock()
	if st := e.stack.Load(); st != nil && st.fast32 == fast32 {
		return st
	}
	st := e.buildStack(fast32)
	e.stack.Store(st)
	return st
}

func (e *Ensemble) buildStack(fast32 bool) *ensembleStack {
	st := &ensembleStack{fast32: fast32}
	if len(e.Models) == 0 {
		return st
	}
	mode := e.Models[0].Feat.Mode
	nets := make([]*gnn.Model, len(e.Models))
	for i, m := range e.Models {
		if m.Feat.Mode != mode || m.Net == nil {
			return st
		}
		nets[i] = m.Net
	}
	if fast32 {
		st.sm = stackAs[float32](nets)
	} else {
		st.sm = stackAs[float64](nets)
	}
	st.mode = mode
	return st
}

// stackAs stacks the members' weights at element type T, or returns nil
// for architectures that cannot stack (traditional passing, mismatched
// widths); those predict correctly through the fallback path.
func stackAs[T nn.Float](nets []*gnn.Model) tileKernel {
	sm, err := gnn.Stack[T](nets)
	if err != nil {
		return nil
	}
	return sm
}

// Invalidate drops the cached weight stack; the next prediction rebuilds
// it from the members' current weights. Call it after mutating any
// member in place (e.g. CostModel.FineTune).
func (e *Ensemble) Invalidate() {
	e.stack.Store(nil)
}

// SetFast32 switches the ensemble's stacked inference to float32 weights
// and activations (the same kernels at T = float32, see
// gnn.StackedModel); the float32 stack is built by the next prediction.
// Predictions then deviate from the float64 reference within the
// tolerance documented there; the fallback path is unaffected.
func (e *Ensemble) SetFast32(on bool) {
	e.fast32.Store(on)
}

// SetFast32 switches every trained ensemble to float32 stacked kernels.
func (pr *Predictor) SetFast32(on bool) {
	for _, s := range pr.Ensembles() {
		if s.Ensemble != nil {
			s.Ensemble.SetFast32(on)
		}
	}
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
