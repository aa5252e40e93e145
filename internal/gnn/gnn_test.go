package gnn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"costream/internal/nn"
)

// testGraph builds a small joint graph:
//
//	source(0) -> filter(1) -> sink(2), hosts 3 and 4,
//	placement: source,filter -> host3; sink -> host4.
func testGraph(srcFeat float64) *Graph {
	return &Graph{
		Nodes: []Node{
			{Kind: KindSource, Feat: []float64{srcFeat, 0.5}},
			{Kind: KindFilter, Feat: []float64{0.2, 0.9, 0.1}},
			{Kind: KindSink, Feat: []float64{1}},
			{Kind: KindHost, Feat: []float64{0.5, 0.5, 0.5, 0.5}},
			{Kind: KindHost, Feat: []float64{1, 1, 1, 1}},
		},
		FlowEdges:  [][2]int{{0, 1}, {1, 2}},
		PlaceEdges: [][2]int{{0, 3}, {1, 3}, {2, 4}},
	}
}

func testDims() map[NodeKind]int {
	return map[NodeKind]int{
		KindSource: 2, KindFilter: 3, KindSink: 1, KindHost: 4,
		KindJoin: 2, KindAggregate: 2,
	}
}

func newTestModel(t *testing.T, traditional bool) *Model {
	t.Helper()
	cfg := DefaultConfig(testDims())
	cfg.Hidden = 8
	cfg.EncHidden, cfg.UpdHidden, cfg.OutHidden = 8, 8, 8
	cfg.Traditional = traditional
	m, err := New(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForwardShapes(t *testing.T) {
	for _, trad := range []bool{false, true} {
		m := newTestModel(t, trad)
		tape := nn.NewTape()
		out, err := m.forward(tape, testGraph(0.5))
		if err != nil {
			t.Fatalf("traditional=%v: %v", trad, err)
		}
		if len(out.Data) != 1 {
			t.Fatalf("output dim = %d, want 1", len(out.Data))
		}
		if math.IsNaN(out.Data[0]) || math.IsInf(out.Data[0], 0) {
			t.Fatalf("output = %v", out.Data[0])
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	m := newTestModel(t, false)
	t1, t2 := nn.NewTape(), nn.NewTape()
	o1, err := m.forward(t1, testGraph(0.5))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := m.forward(t2, testGraph(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if o1.Data[0] != o2.Data[0] {
		t.Errorf("same input produced %v then %v", o1.Data[0], o2.Data[0])
	}
}

func TestInputSensitivity(t *testing.T) {
	m := newTestModel(t, false)
	t1, t2 := nn.NewTape(), nn.NewTape()
	o1, _ := m.forward(t1, testGraph(0.1))
	o2, _ := m.forward(t2, testGraph(0.9))
	if o1.Data[0] == o2.Data[0] {
		t.Error("changing source features did not change the prediction")
	}
}

func TestPlacementSensitivity(t *testing.T) {
	// Identical query, swapped host assignment -> different prediction.
	m := newTestModel(t, false)
	g1 := testGraph(0.5)
	g2 := testGraph(0.5)
	g2.PlaceEdges = [][2]int{{0, 4}, {1, 4}, {2, 3}}
	t1, t2 := nn.NewTape(), nn.NewTape()
	o1, _ := m.forward(t1, g1)
	o2, _ := m.forward(t2, g2)
	if o1.Data[0] == o2.Data[0] {
		t.Error("swapping placement did not change the prediction")
	}
}

func TestGradCheckThroughMessagePassing(t *testing.T) {
	m := newTestModel(t, false)
	g := testGraph(0.5)
	forward := func() float64 {
		tape := nn.NewTape()
		out, err := m.forward(tape, g)
		if err != nil {
			t.Fatal(err)
		}
		return nn.MSLELoss(tape, out, 100).Data[0]
	}
	m.zeroGrad()
	tape := nn.NewTape()
	out, err := m.forward(tape, g)
	if err != nil {
		t.Fatal(err)
	}
	loss := nn.MSLELoss(tape, out, 100)
	tape.Backward(loss)

	params, grads := m.Params(), m.grads()
	const h = 1e-6
	checked, nonzero := 0, 0
	for k, p := range params {
		step := len(p)/5 + 1
		for i := 0; i < len(p); i += step {
			orig := p[i]
			p[i] = orig + h
			lp := forward()
			p[i] = orig - h
			lm := forward()
			p[i] = orig
			want := (lp - lm) / (2 * h)
			got := grads[k][i]
			if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
				t.Errorf("param %d[%d]: grad %v, want %v", k, i, got, want)
			}
			checked++
			if got != 0 {
				nonzero++
			}
		}
	}
	if checked < 20 || nonzero == 0 {
		t.Fatalf("checked %d gradients, %d nonzero", checked, nonzero)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Teach the model that cost ~ srcFeat * 1000: four graphs, target
	// proportional to feature.
	m := newTestModel(t, false)
	m.zeroGrad()
	ls := m.Linears()
	opt := nn.NewAdam(0.005, ls, make([]float64, nn.AdamMoments(ls)))
	graphs := []*Graph{testGraph(0.1), testGraph(0.4), testGraph(0.7), testGraph(1.0)}
	targets := []float64{100, 400, 700, 1000}
	lossAt := func() float64 {
		var sum float64
		for i, g := range graphs {
			tape := nn.NewTape()
			out, _ := m.forward(tape, g)
			sum += nn.MSLELoss(tape, out, targets[i]).Data[0]
		}
		return sum / float64(len(graphs))
	}
	before := lossAt()
	for epoch := 0; epoch < 200; epoch++ {
		for i, g := range graphs {
			tape := nn.NewTape()
			out, _ := m.forward(tape, g)
			tape.Backward(nn.MSLELoss(tape, out, targets[i]))
		}
		opt.Step()
	}
	after := lossAt()
	if after >= before/10 {
		t.Errorf("loss %v -> %v; want at least 10x reduction", before, after)
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"empty", &Graph{}},
		{"flow edge out of range", &Graph{
			Nodes:     []Node{{Kind: KindSource, Feat: []float64{1, 1}}},
			FlowEdges: [][2]int{{0, 5}},
		}},
		{"flow edge to host", &Graph{
			Nodes: []Node{
				{Kind: KindSource, Feat: []float64{1, 1}},
				{Kind: KindHost, Feat: []float64{1, 1, 1, 1}},
			},
			FlowEdges: [][2]int{{0, 1}},
		}},
		{"placement to non-host", &Graph{
			Nodes: []Node{
				{Kind: KindSource, Feat: []float64{1, 1}},
				{Kind: KindFilter, Feat: []float64{1, 1, 1}},
			},
			PlaceEdges: [][2]int{{0, 1}},
		}},
		{"placement from host", &Graph{
			Nodes: []Node{
				{Kind: KindHost, Feat: []float64{1, 1, 1, 1}},
				{Kind: KindHost, Feat: []float64{1, 1, 1, 1}},
			},
			PlaceEdges: [][2]int{{0, 1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err == nil {
				t.Error("Validate accepted bad graph")
			}
		})
	}
}

func TestForwardRejectsWrongFeatureDim(t *testing.T) {
	m := newTestModel(t, false)
	g := testGraph(0.5)
	g.Nodes[0].Feat = []float64{1} // encoder expects 2
	tape := nn.NewTape()
	if _, err := m.forward(tape, g); err == nil {
		t.Error("Forward accepted wrong feature dimension")
	}
}

func TestCyclicFlowRejected(t *testing.T) {
	m := newTestModel(t, false)
	g := testGraph(0.5)
	g.FlowEdges = append(g.FlowEdges, [2]int{2, 0})
	tape := nn.NewTape()
	if _, err := m.forward(tape, g); err == nil {
		t.Error("Forward accepted cyclic flow graph")
	}
}

// TestSerializationRoundTrip: a saved model is its Config — whose JSON
// form names feature dimensions by kind and leaves out the
// traditional-passing fields — plus its Params slices. New on the decoded
// config, filled with those slices, predicts the same bits, and
// Config.NumParams counts exactly the weights New builds.
func TestSerializationRoundTrip(t *testing.T) {
	m := newTestModel(t, false)
	data, err := json.Marshal(m.Config())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"hidden":8,"feat_dims":{"aggregate":2,"filter":3,"host":4,"join":2,"sink":1,"source":2},"enc_hidden":8,"upd_hidden":8,"out_hidden":8}`
	if string(data) != want {
		t.Fatalf("config JSON %s, want %s", data, want)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	m2, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := m.Params()
	dst := m2.Params()
	n := 0
	for i := range src {
		n += copy(dst[i], src[i])
	}
	if count, err := cfg.NumParams(); err != nil || count != n {
		t.Fatalf("NumParams = %d, %v; New built %d weights", count, err, n)
	}
	g := testGraph(0.33)
	t1, t2 := nn.NewTape(), nn.NewTape()
	o1, err := m.forward(t1, g)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := m2.forward(t2, g)
	if err != nil {
		t.Fatal(err)
	}
	if o1.Data[0] != o2.Data[0] {
		t.Errorf("round trip changed prediction: %v vs %v", o1.Data[0], o2.Data[0])
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Hidden: 0, FeatDims: testDims()}, 1); err == nil {
		t.Error("zero hidden accepted")
	}
	if _, err := New(Config{Hidden: 8}, 1); err == nil {
		t.Error("missing feature dims accepted")
	}
}

func TestDifferentSeedsDifferentModels(t *testing.T) {
	cfg := DefaultConfig(testDims())
	cfg.Hidden, cfg.EncHidden, cfg.UpdHidden, cfg.OutHidden = 8, 8, 8, 8
	m1, _ := New(cfg, 1)
	m2, _ := New(cfg, 2)
	g := testGraph(0.5)
	t1, t2 := nn.NewTape(), nn.NewTape()
	o1, _ := m1.forward(t1, g)
	o2, _ := m2.forward(t2, g)
	if o1.Data[0] == o2.Data[0] {
		t.Error("different seeds produced identical predictions")
	}
}

func TestCoLocationMessages(t *testing.T) {
	// Moving the filter from host 3 to host 4 changes host 3's incoming
	// message set (co-location effect) and thus the prediction.
	m := newTestModel(t, false)
	g1 := testGraph(0.5)
	g2 := testGraph(0.5)
	g2.PlaceEdges = [][2]int{{0, 3}, {1, 4}, {2, 4}}
	t1, t2 := nn.NewTape(), nn.NewTape()
	o1, _ := m.forward(t1, g1)
	o2, _ := m.forward(t2, g2)
	if o1.Data[0] == o2.Data[0] {
		t.Error("co-location change did not affect prediction")
	}
}

func TestNumParamsAndRandomizedForward(t *testing.T) {
	m := newTestModel(t, false)
	if m.NumParams() <= 0 {
		t.Fatal("NumParams must be positive")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		g := testGraph(rng.Float64())
		tape := nn.NewTape()
		out, err := m.forward(tape, g)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(out.Data[0]) {
			t.Fatal("NaN prediction")
		}
	}
}
