package gnn

import (
	"slices"
	"testing"

	"costream/internal/nn"
)

// TestInferDoesNotMutateGraph guards the read-only contract batch scoring
// relies on when sharing node feature slices across graphs: neither an
// inference tape nor the packed kernel writes a feature.
func TestInferDoesNotMutateGraph(t *testing.T) {
	m := newTestModel(t, false)
	g := testGraph(0.5)
	var before [][]float64
	for _, nd := range g.Nodes {
		before = append(before, slices.Clone(nd.Feat))
	}
	check := func(path string) {
		t.Helper()
		for i, nd := range g.Nodes {
			if !slices.Equal(nd.Feat, before[i]) {
				t.Fatalf("%s: node %d features mutated: %v -> %v", path, i, before[i], nd.Feat)
			}
		}
	}
	if _, err := m.forward(nn.NewInferenceTape(), g); err != nil {
		t.Fatal(err)
	}
	check("inference tape")

	sm, err := Stack([]*Model{m})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := newPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	// The same graph as a tile of one: its operator nodes, and hosts 0
	// and 1 carrying its host nodes' feature slices.
	ops := &Graph{Nodes: g.Nodes[:3], FlowEdges: g.FlowEdges}
	hosts := func(h int) []float64 { return g.Nodes[3+h].Feat }
	var pg PackedGraphs
	if err := pg.Pack(ops, plan, 2, hosts, [][]int{{0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := sm.InferEnsembleBatch(&pg, nil, make([]float64, 1)); err != nil {
		t.Fatal(err)
	}
	check("packed kernel")
}

// TestInferRejectsBadGraphs: an inference tape validates like a training
// one — an empty graph and a wrong feature width are errors.
func TestInferRejectsBadGraphs(t *testing.T) {
	m := newTestModel(t, false)
	if _, err := m.forward(nn.NewInferenceTape(), &Graph{}); err == nil {
		t.Error("empty graph accepted")
	}
	g := testGraph(0.5)
	g.Nodes[0].Feat = []float64{1} // wrong dimension
	if _, err := m.forward(nn.NewInferenceTape(), g); err == nil {
		t.Error("wrong feature dimension accepted")
	}
}
