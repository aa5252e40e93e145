package gnn

import (
	"fmt"
	"maps"

	"costream/internal/nn"
)

// StackedModel is the inference engine: a whole ensemble — k Models of
// identical architecture, k = 1 for a single model — whose weights are
// stacked so that InferEnsembleBatch advances a packed tile of C
// candidate graphs × k members through one row-batched matrix-matrix
// kernel pass per message-passing phase. A single prediction is a tile of
// C = 1. Member m's weights occupy block m of every stacked layer
// (nn.StackedMLP), activations live in an interleaved node-major,
// member-block layout, and per-worker BatchScratch buffers make the
// steady-state pass allocation-free.
//
// Every output is bit-identical, member for member, to
// Model.ForwardPlanned on an inference tape, the scalar oracle (and the
// only path for traditional message passing): every kernel accumulates in
// the same order as the tape's ops.
//
// Stacking copies the weights; a stack goes stale when any member's
// weights are updated in place (fine-tuning) and must be rebuilt via
// Stack.
type StackedModel struct {
	cfg Config
	k   int
	enc map[NodeKind]*nn.StackedMLP
	upd map[NodeKind]*nn.StackedMLP
	out *nn.StackedMLP
}

// Stack vertically stacks the weights of k models for one-pass ensemble
// inference. All models must share one architecture (Config equality)
// and use the paper's directed message passing —
// the Exp 7b traditional ablation re-derives its neighbor structure per
// graph and is not supported; such models predict one at a time on an
// inference tape.
func Stack(models []*Model) (*StackedModel, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("gnn: stacking zero models")
	}
	cfg := models[0].cfg
	if cfg.Traditional {
		return nil, fmt.Errorf("gnn: stacked inference does not support traditional message passing")
	}
	for i, m := range models[1:] {
		c := m.cfg
		if c.Hidden != cfg.Hidden || c.EncHidden != cfg.EncHidden ||
			c.UpdHidden != cfg.UpdHidden || c.OutHidden != cfg.OutHidden ||
			c.Traditional != cfg.Traditional || !maps.Equal(c.FeatDims, cfg.FeatDims) {
			return nil, fmt.Errorf("gnn: model %d has a different architecture", i+1)
		}
	}
	sm := &StackedModel{
		cfg: cfg,
		k:   len(models),
		enc: make(map[NodeKind]*nn.StackedMLP, len(models[0].enc)),
		upd: make(map[NodeKind]*nn.StackedMLP, len(models[0].upd)),
	}
	for _, kind := range AllKinds() {
		if _, ok := models[0].enc[kind]; !ok {
			continue
		}
		encs := make([]*nn.MLP, len(models))
		upds := make([]*nn.MLP, len(models))
		for m, mod := range models {
			e, okE := mod.enc[kind]
			u, okU := mod.upd[kind]
			if !okE || !okU {
				return nil, fmt.Errorf("gnn: model %d is missing %v networks", m, kind)
			}
			encs[m], upds[m] = e, u
		}
		se, err := nn.StackMLPs(encs)
		if err != nil {
			return nil, fmt.Errorf("gnn: stacking %v encoders: %w", kind, err)
		}
		su, err := nn.StackMLPs(upds)
		if err != nil {
			return nil, fmt.Errorf("gnn: stacking %v updaters: %w", kind, err)
		}
		sm.enc[kind], sm.upd[kind] = se, su
	}
	outs := make([]*nn.MLP, len(models))
	for m, mod := range models {
		outs[m] = mod.out
	}
	so, err := nn.StackMLPs(outs)
	if err != nil {
		return nil, fmt.Errorf("gnn: stacking readouts: %w", err)
	}
	sm.out = so
	return sm, nil
}

// K returns the number of stacked members.
func (sm *StackedModel) K() int { return sm.k }

// Hidden returns the stacked architecture's hidden width (used by tile
// sizing heuristics to bound per-tile activation footprints).
func (sm *StackedModel) Hidden() int { return sm.cfg.Hidden }

// catRow writes one interleaved update-input row: for each member m the
// concat of (sum of child states in child order, own state), children
// read from childSrc and the own state from ownSrc — both n×(k·H)
// activation planes. Summation order matches nn.Tape.Sum exactly.
func catRow(dst []float64, kids []int, own, k, H int, childSrc, ownSrc []float64) {
	kH := k * H
	for m := 0; m < k; m++ {
		agg := dst[m*2*H : m*2*H+H]
		copy(agg, childSrc[kids[0]*kH+m*H:kids[0]*kH+m*H+H])
		for _, kid := range kids[1:] {
			blk := childSrc[kid*kH+m*H : kid*kH+m*H+H]
			for i, v := range blk {
				agg[i] += v
			}
		}
		copy(dst[m*2*H+H:m*2*H+2*H], ownSrc[own*kH+m*H:own*kH+m*H+H])
	}
}
