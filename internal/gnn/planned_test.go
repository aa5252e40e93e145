package gnn

import (
	"testing"

	"costream/internal/nn"
)

// TestForwardPlannedMatchesForward pins the planned/scratch pass to the
// plain Forward pass: bit-identical outputs, including when the tape and
// scratch are reused across differently shaped graphs.
func TestForwardPlannedMatchesForward(t *testing.T) {
	m := newTestModel(t, false)
	graphs := []*Graph{testGraph(0.1), testGraph(0.9), diamondGraph()}
	tape := nn.NewTape()
	scratch := NewScratch()
	for round := 0; round < 3; round++ { // reuse across rounds and graphs
		for gi, g := range graphs {
			ref := nn.NewTape()
			want, err := m.forward(ref, g)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := newPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			tape.Reset()
			got, err := m.ForwardPlanned(tape, g, plan, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if got.Data[0] != want.Data[0] {
				t.Fatalf("round %d graph %d: planned=%v forward=%v", round, gi, got.Data[0], want.Data[0])
			}
		}
	}
}

// diamondGraph exercises multi-parent phase-3 updates and a host with no
// placements left implicit.
func diamondGraph() *Graph {
	return &Graph{
		Nodes: []Node{
			{Kind: KindSource, Feat: []float64{0.3, 0.6}},
			{Kind: KindSource, Feat: []float64{0.8, 0.2}},
			{Kind: KindJoin, Feat: []float64{0.5, 0.5}},
			{Kind: KindSink, Feat: []float64{1}},
			{Kind: KindHost, Feat: []float64{0.9, 0.1, 0.4, 0.7}},
		},
		FlowEdges:  [][2]int{{0, 2}, {1, 2}, {2, 3}},
		PlaceEdges: [][2]int{{0, 4}, {1, 4}, {2, 4}, {3, 4}},
	}
}

// TestGradShadowSharesWeightsOwnsGrads checks the training fit's gradient
// shadow: identical forward values (shared weights), private gradient
// accumulation, and parameter order aligned with the original model.
func TestGradShadowSharesWeightsOwnsGrads(t *testing.T) {
	m := newTestModel(t, false)
	shadow := m.GradShadow()
	g := testGraph(0.5)

	t1, t2 := nn.NewTape(), nn.NewTape()
	o1, err := m.forward(t1, g)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := shadow.forward(t2, g)
	if err != nil {
		t.Fatal(err)
	}
	if o1.Data[0] != o2.Data[0] {
		t.Fatalf("shadow forward %v != original %v", o2.Data[0], o1.Data[0])
	}

	m.zeroGrad()
	shadow.zeroGrad()
	mp, mg := m.Params(), m.grads()
	sp, sg := shadow.Params(), shadow.grads()
	if len(mp) != len(sp) {
		t.Fatalf("param count %d != %d", len(sp), len(mp))
	}
	for k := range mp {
		if &mp[k][0] != &sp[k][0] {
			t.Fatalf("param slice %d not shared", k)
		}
		if &mg[k][0] == &sg[k][0] {
			t.Fatalf("grad slice %d shared, want private", k)
		}
	}

	// Backprop through the shadow: its grads fill, the original's stay 0.
	m.zeroGrad()
	t2.Backward(nn.MSLELoss(t2, o2, 3))
	var shadowNonzero bool
	for k := range sg {
		for i := range sg[k] {
			if sg[k][i] != 0 {
				shadowNonzero = true
			}
			if mg[k][i] != 0 {
				t.Fatalf("original grad %d[%d] = %v, want 0", k, i, mg[k][i])
			}
		}
	}
	if !shadowNonzero {
		t.Fatal("no gradients accumulated in shadow")
	}
}

// TestInferenceTapeMatchesTrainingTape pins the gradient-free tape mode
// to the training tape on a full GNN pass.
func TestInferenceTapeMatchesTrainingTape(t *testing.T) {
	for _, trad := range []bool{false, true} {
		m := newTestModel(t, trad)
		g := testGraph(0.4)
		tt, it := nn.NewTape(), nn.NewInferenceTape()
		o1, err := m.forward(tt, g)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := m.forward(it, g)
		if err != nil {
			t.Fatal(err)
		}
		if o1.Data[0] != o2.Data[0] {
			t.Fatalf("traditional=%v: inference tape %v != training tape %v", trad, o2.Data[0], o1.Data[0])
		}
		if o2.Grad != nil {
			t.Fatal("inference tape node carries a gradient buffer")
		}
	}
}
