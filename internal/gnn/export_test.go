package gnn

import (
	"costream/internal/nn"
	"costream/internal/stream"
)

// flowOf derives the Topology of g's operator flow as the query g was
// featurized from has it: over g's leading operator nodes, with g's flow
// edges in order.
func flowOf(g *Graph) (*stream.Topology, error) {
	n := 0
	for n < len(g.Nodes) && g.Nodes[n].Kind != KindHost {
		n++
	}
	q := &stream.Query{Ops: make([]*stream.Operator, n)}
	for _, e := range g.FlowEdges {
		q.Edges = append(q.Edges, e)
	}
	flow, err := q.Topology()
	return &flow, err
}

// newPlan is NewPlan over g's own flow.
func newPlan(g *Graph) (*Plan, error) {
	flow, err := flowOf(g)
	if err != nil {
		return nil, err
	}
	return NewPlan(g, flow)
}

// forward records the graph's forward pass on the tape through a fresh
// plan and scratch: ForwardPlanned for tests that evaluate a graph once.
func (m *Model) forward(t *nn.Tape, g *Graph) (*nn.Node, error) {
	plan, err := newPlan(g)
	if err != nil {
		return nil, err
	}
	return m.ForwardPlanned(t, g, plan, NewScratch())
}

// zeroGrad clears every gradient buffer of the model, attaching them
// first to a layer that has none: outside a fit a model holds no
// gradients, and a test that backpropagates outside one attaches them as
// a fit does.
func (m *Model) zeroGrad() {
	for _, l := range m.Linears() {
		if l.GW == nil {
			l.AttachGrads(make([]float64, l.Out*l.In), make([]float64, l.Out))
		}
		clear(l.GW)
		clear(l.GB)
	}
}

// grads returns every gradient buffer of the model, GW then GB per
// layer, in the order of Params.
func (m *Model) grads() [][]float64 {
	var grads [][]float64
	for _, l := range m.Linears() {
		grads = append(grads, l.GW, l.GB)
	}
	return grads
}
