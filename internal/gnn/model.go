package gnn

import (
	"fmt"
	"math/rand"
	"slices"

	"costream/internal/nn"
)

// Config describes a model architecture. Its JSON form, in a model
// artifact's header, names feature dimensions by node kind and leaves out
// the traditional-passing fields: only stackable models are saved.
type Config struct {
	// Hidden is the hidden state width.
	Hidden int `json:"hidden"`
	// FeatDims maps node kind -> input feature dimension.
	FeatDims map[NodeKind]int `json:"feat_dims"`
	// EncHidden and UpdHidden are the hidden widths of the encoder and
	// update MLPs (one hidden layer each); OutHidden of the readout MLP.
	EncHidden int `json:"enc_hidden"`
	UpdHidden int `json:"upd_hidden"`
	OutHidden int `json:"out_hidden"`
	// Traditional selects the ablation message passing scheme of Exp 7b:
	// traditionalRounds simultaneous undirected neighbor-sum updates
	// instead of the paper's three ordered directed phases.
	Traditional bool `json:"-"`
}

// traditionalRounds is the number of undirected rounds of the Exp 7b
// ablation, matching the three directed phases it replaces.
const traditionalRounds = 3

// maxWidth bounds every width New accepts, so that a parameter count
// derived from a config read off disk cannot overflow.
const maxWidth = 1 << 16

// NumParams returns the scalar parameter count of the model New builds
// from cfg without building it, or the error New returns for cfg.
func (cfg Config) NumParams() (int, error) {
	if len(cfg.FeatDims) == 0 {
		return 0, fmt.Errorf("gnn: no feature dimensions configured")
	}
	mlp := func(in, hidden, out int) int { return (in+1)*hidden + (hidden+1)*out }
	valid := func(w int) bool { return 0 < w && w <= maxWidth }
	n := mlp(cfg.Hidden, cfg.OutHidden, 1)
	ok := valid(cfg.Hidden) && valid(cfg.EncHidden) && valid(cfg.UpdHidden) && valid(cfg.OutHidden)
	for _, k := range AllKinds() {
		if d, has := cfg.FeatDims[k]; has {
			ok = ok && valid(d)
			n += mlp(d, cfg.EncHidden, cfg.Hidden) + mlp(2*cfg.Hidden, cfg.UpdHidden, cfg.Hidden)
		}
	}
	if !ok {
		return 0, fmt.Errorf("gnn: layer widths and feature dimensions must lie in 1..%d", maxWidth)
	}
	return n, nil
}

// DefaultConfig returns the architecture used across the experiments.
func DefaultConfig(featDims map[NodeKind]int) Config {
	return Config{
		Hidden:    48,
		FeatDims:  featDims,
		EncHidden: 64, UpdHidden: 64, OutHidden: 48,
	}
}

// Model is a COSTREAM GNN predicting one scalar cost (in the head's output
// space: log1p cost for regression heads, a logit for classification).
type Model struct {
	cfg Config
	enc map[NodeKind]*nn.MLP // features -> hidden
	upd map[NodeKind]*nn.MLP // concat(sum children, own) -> hidden
	out *nn.MLP              // hidden -> 1
}

// New constructs a model with freshly initialized weights.
func New(cfg Config, seed int64) (*Model, error) {
	rng := rand.New(rand.NewSource(seed))
	return build(cfg, func(sizes ...int) *nn.MLP { return nn.NewMLP(rng, sizes...) })
}

// NewZero constructs a model of cfg whose weights are all zero, for a
// caller that fills them in (a model decoder, a clone): unlike New it
// seeds no source and draws no weights.
func NewZero(cfg Config) (*Model, error) { return build(cfg, nn.ZeroMLP) }

// build constructs a model of cfg from the MLPs newMLP returns, in the
// order New draws their weights.
func build(cfg Config, newMLP func(sizes ...int) *nn.MLP) (*Model, error) {
	if _, err := cfg.NumParams(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg: cfg,
		enc: make(map[NodeKind]*nn.MLP),
		upd: make(map[NodeKind]*nn.MLP),
	}
	for _, k := range AllKinds() {
		d, ok := cfg.FeatDims[k]
		if !ok {
			continue
		}
		m.enc[k] = newMLP(d, cfg.EncHidden, cfg.Hidden)
		m.upd[k] = newMLP(2*cfg.Hidden, cfg.UpdHidden, cfg.Hidden)
	}
	m.out = newMLP(cfg.Hidden, cfg.OutHidden, 1)
	return m, nil
}

// Config returns the model's architecture configuration.
func (m *Model) Config() Config { return m.cfg }

// Linears returns every layer of the model in a deterministic order:
// encoder then update MLP per node kind, then the readout, in a slice
// allocated once. The optimizer steps them in this order, and Params
// lists their weights in it. A training fit takes the list once for the
// model and once for its gradient shadow (GradShadow) and manages its
// gradient buffers, training mirrors and fold layer by layer over them.
func (m *Model) Linears() []*nn.Linear {
	n := len(m.out.Layers)
	for _, e := range m.enc {
		n += len(e.Layers)
	}
	for _, u := range m.upd {
		n += len(u.Layers)
	}
	ls := make([]*nn.Linear, 0, n)
	for _, k := range AllKinds() {
		if e, ok := m.enc[k]; ok {
			ls = append(ls, e.Layers...)
		}
		if u, ok := m.upd[k]; ok {
			ls = append(ls, u.Layers...)
		}
	}
	return append(ls, m.out.Layers...)
}

// Params returns every weight and bias slice of the model, W then B per
// layer in the order of Linears: the order a model artifact stores them
// in.
func (m *Model) Params() [][]float64 {
	ls := m.Linears()
	params := make([][]float64, 0, 2*len(ls))
	for _, l := range ls {
		params = append(params, l.W, l.B)
	}
	return params
}

// GradShadow returns a model that shares this model's weight slices, and
// the training mirrors its layers hold at the time of the call, but no
// gradient buffers (see nn.Linear.GradShadow): its caller attaches
// private ones to every layer before the first backprop. A training fit
// makes one shadow after its mirrors exist and backpropagates each
// minibatch chunk after the first into it, so the chunk's gradients sum
// on their own before they are folded into the optimizer's, layer by
// layer (nn.Linear.FoldGrads): Linears on the shadow yields layers
// sharing the original's weights, each with its own gradients, in the
// same deterministic order as the original.
func (m *Model) GradShadow() *Model {
	s := &Model{
		cfg: m.cfg,
		enc: make(map[NodeKind]*nn.MLP, len(m.enc)),
		upd: make(map[NodeKind]*nn.MLP, len(m.upd)),
		out: m.out.GradShadow(),
	}
	for k, e := range m.enc {
		s.enc[k] = e.GradShadow()
	}
	for k, u := range m.upd {
		s.upd[k] = u.GradShadow()
	}
	return s
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n, _ := m.cfg.NumParams() // New accepted cfg
	return n
}

// ForwardPlanned records the full forward pass of the graph on the tape
// and returns the scalar output node. plan is the graph's flow structure
// (NewPlan validated the graph), so only the per-node encoder checks
// remain; s holds the pass's buffers. With a per-worker tape and
// scratch, the steady-state pass performs zero heap allocations.
func (m *Model) ForwardPlanned(t *nn.Tape, g *Graph, plan *Plan, s *Scratch) (*nn.Node, error) {
	n := len(g.Nodes)
	s.grow(n)
	hidden := s.hidden[:n]
	for i, nd := range g.Nodes {
		enc, ok := m.enc[nd.Kind]
		if !ok {
			return nil, fmt.Errorf("gnn: no encoder for kind %v", nd.Kind)
		}
		if len(nd.Feat) != enc.InDim() {
			return nil, fmt.Errorf("gnn: node %d (%v) has %d features, encoder wants %d",
				i, nd.Kind, len(nd.Feat), enc.InDim())
		}
		hidden[i] = enc.Apply(t, t.Const(nd.Feat))
	}
	if m.cfg.Traditional {
		var err error
		hidden, err = m.traditionalPassing(t, g, hidden)
		if err != nil {
			return nil, err
		}
	} else {
		hidden = m.directedPassing(t, g, hidden, plan, s)
	}
	readout := t.Sum(hidden...)
	return m.out.Apply(t, readout), nil
}

// update applies the node-type specific update MLP to
// concat(sum(children), own state). children must be non-empty; the slice
// may be a reused scratch buffer (the tape copies it).
func (m *Model) update(t *nn.Tape, kind NodeKind, children []*nn.Node, own *nn.Node) *nn.Node {
	agg := t.Sum(children...)
	return m.upd[kind].Apply(t, t.Concat2(agg, own))
}

// directedPassing implements the paper's three ordered phases.
func (m *Model) directedPassing(t *nn.Tape, g *Graph, h []*nn.Node, plan *Plan, s *Scratch) []*nn.Node {
	// Phase 1: operators -> hardware. Hosts learn the computational
	// requirements of the operators placed on them (co-location sends
	// multiple messages to the same host).
	for _, e := range g.PlaceEdges {
		if len(s.hostKids[e[1]]) == 0 {
			s.hostOrder = append(s.hostOrder, e[1])
		}
		s.hostKids[e[1]] = append(s.hostKids[e[1]], h[e[0]])
	}
	slices.Sort(s.hostOrder)
	next := s.next[:len(h)]
	copy(next, h)
	// Hosts are updated in ascending index order: while their new states
	// are order-independent, the tape-recording order determines gradient
	// accumulation order, and training must be bit-reproducible.
	for _, hostIdx := range s.hostOrder {
		next[hostIdx] = m.update(t, KindHost, s.hostKids[hostIdx], h[hostIdx])
		s.hostKids[hostIdx] = s.hostKids[hostIdx][:0]
	}

	// Phase 2: hardware -> operators. Operators learn the resources they
	// are placed on.
	after2 := s.after2[:len(next)]
	copy(after2, next)
	for _, e := range g.PlaceEdges {
		opIdx, hostIdx := e[0], e[1]
		s.one[0] = next[hostIdx]
		after2[opIdx] = m.update(t, g.Nodes[opIdx].Kind, s.one[:], next[opIdx])
	}

	// Phase 3: sources -> ... -> sink along the data flow, merging
	// source characteristics with operator and hardware information.
	final := s.final[:len(after2)]
	copy(final, after2)
	for _, v := range plan.order {
		parents := plan.flow.Ups(v)
		if len(parents) == 0 {
			continue // sources send but do not receive in this phase
		}
		children := s.kids[:0]
		for _, p := range parents {
			children = append(children, final[p])
		}
		s.kids = children[:0]
		final[v] = m.update(t, g.Nodes[v].Kind, children, after2[v])
	}
	return final
}

// traditionalPassing is the Exp 7b ablation: in each round every node is
// updated with the sum of all its neighbors' states, regardless of node
// type or edge direction.
func (m *Model) traditionalPassing(t *nn.Tape, g *Graph, h []*nn.Node) ([]*nn.Node, error) {
	n := len(g.Nodes)
	neighbors := make([][]int, n)
	addEdge := func(a, b int) {
		neighbors[a] = append(neighbors[a], b)
		neighbors[b] = append(neighbors[b], a)
	}
	for _, e := range g.FlowEdges {
		addEdge(e[0], e[1])
	}
	for _, e := range g.PlaceEdges {
		addEdge(e[0], e[1])
	}
	cur := h
	for range traditionalRounds {
		next := make([]*nn.Node, n)
		for v := 0; v < n; v++ {
			if len(neighbors[v]) == 0 {
				next[v] = cur[v]
				continue
			}
			children := make([]*nn.Node, len(neighbors[v]))
			for i, u := range neighbors[v] {
				children[i] = cur[u]
			}
			next[v] = m.update(t, g.Nodes[v].Kind, children, cur[v])
		}
		cur = next
	}
	return cur, nil
}
