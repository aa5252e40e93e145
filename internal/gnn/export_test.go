package gnn

import "costream/internal/nn"

// forward records the graph's forward pass on the tape through a fresh
// plan and scratch: ForwardPlanned for tests that evaluate a graph once.
func (m *Model) forward(t *nn.Tape, g *Graph) (*nn.Node, error) {
	plan, err := NewPlan(g)
	if err != nil {
		return nil, err
	}
	return m.ForwardPlanned(t, g, plan, NewScratch())
}

// zeroGrad clears every gradient buffer of the model.
func (m *Model) zeroGrad() {
	_, grads := m.Params()
	for _, g := range grads {
		clear(g)
	}
}
