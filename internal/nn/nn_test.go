package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// numericalGrad estimates d(loss)/d(param) by central differences for an
// arbitrary forward function.
func numericalGrad(param []float64, i int, forward func() float64) float64 {
	const h = 1e-6
	orig := param[i]
	param[i] = orig + h
	lp := forward()
	param[i] = orig - h
	lm := forward()
	param[i] = orig
	return (lp - lm) / (2 * h)
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	attachGrads(l)
	x := []float64{0.3, -0.7, 1.2, 0.05}
	forward := func() float64 {
		tape := NewTape()
		in := tape.Const(x)
		out := l.Apply(tape, in)
		// Reduce to a scalar with a fixed weighting so the loss is smooth.
		s := 0.0
		for i, v := range out.Data {
			s += float64(i+1) * v
		}
		return s
	}
	// Analytic gradients via a weighted-sum output node.
	tape := NewTape()
	in := tape.Const(x)
	out := l.Apply(tape, in)
	w := tape.Const([]float64{1, 2, 3})
	// Build scalar sum_i w_i*out_i manually.
	var prod *Node
	prod = tape.customOp(
		[]float64{out.Data[0]*1 + out.Data[1]*2 + out.Data[2]*3}, func() {
			for i := range out.Data {
				out.Grad[i] += prod.Grad[0] * w.Data[i]
			}
		})
	tape.Backward(prod)

	for i := 0; i < len(l.W); i += 3 {
		want := numericalGrad(l.W, i, forward)
		if got := l.GW[i]; math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("dL/dW[%d] = %v, want %v", i, got, want)
		}
	}
	for i := range l.B {
		want := numericalGrad(l.B, i, forward)
		if got := l.GB[i]; math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("dL/dB[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestMLPGradCheckMSLE(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, 5, 8, 8, 1)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	const target = 42.0
	forward := func() float64 {
		tape := NewTape()
		out := m.Apply(tape, tape.Const(x))
		return MSLELoss(tape, out, target).Data[0]
	}
	m.zeroGrad()
	tape := NewTape()
	out := m.Apply(tape, tape.Const(x))
	loss := MSLELoss(tape, out, target)
	tape.Backward(loss)

	params, grads := m.params(), m.grads()
	checked := 0
	for k, p := range params {
		step := len(p)/7 + 1
		for i := 0; i < len(p); i += step {
			want := numericalGrad(p, i, forward)
			got := grads[k][i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("param %d[%d]: grad = %v, want %v", k, i, got, want)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d gradients checked", checked)
	}
}

func TestMLPGradCheckBCE(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, 3, 6, 1)
	x := []float64{0.5, -1.5, 2.0}
	for _, y := range []float64{0, 1} {
		forward := func() float64 {
			tape := NewTape()
			out := m.Apply(tape, tape.Const(x))
			return BCEWithLogitsLoss(tape, out, y).Data[0]
		}
		m.zeroGrad()
		tape := NewTape()
		out := m.Apply(tape, tape.Const(x))
		tape.Backward(BCEWithLogitsLoss(tape, out, y))
		params, grads := m.params(), m.grads()
		for k, p := range params {
			for i := 0; i < len(p); i += 5 {
				want := numericalGrad(p, i, forward)
				got := grads[k][i]
				if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
					t.Errorf("y=%v param %d[%d]: grad = %v, want %v", y, k, i, got, want)
				}
			}
		}
	}
}

func TestGraphOpsGradCheck(t *testing.T) {
	// Composite graph: concat2(sum(a,b), scale(a,2)) -> weighted sum of
	// squares, so every input reaches the output through each op and the
	// gradient depends on the forward values.
	a := []float64{0.2, -0.4}
	b := []float64{1.1, 0.9}
	record := func(tape *Tape) (na, nb, cc *Node) {
		na, nb = tape.Const(a), tape.Const(b)
		cc = tape.Concat2(tape.Sum(na, nb), tape.Scale(na, 2))
		return na, nb, cc
	}
	loss := func(v []float64) float64 {
		total := 0.0
		for i, x := range v {
			total += float64(i+1) * x * x
		}
		return total
	}
	forward := func() float64 {
		_, _, cc := record(NewTape())
		return loss(cc.Data)
	}
	tape := NewTape()
	na, nb, cc := record(tape)
	if want := []float64{a[0] + b[0], a[1] + b[1], 2 * a[0], 2 * a[1]}; !slices.Equal(cc.Data, want) {
		t.Fatalf("forward %v, want %v", cc.Data, want)
	}
	var outNode *Node
	outNode = tape.customOp([]float64{loss(cc.Data)}, func() {
		for i, x := range cc.Data {
			cc.Grad[i] += outNode.Grad[0] * float64(i+1) * 2 * x
		}
	})
	tape.Backward(outNode)

	for i := range a {
		want := numericalGrad(a, i, forward)
		if got := na.Grad[i]; math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("da[%d] = %v, want %v", i, got, want)
		}
	}
	for i := range b {
		want := numericalGrad(b, i, forward)
		if got := nb.Grad[i]; math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("db[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestAdamConvergesOnRegression(t *testing.T) {
	// Learn y = 2*x0 - 3*x1 + 1 with a small MLP in raw space via MSLE on
	// shifted positive targets.
	rng := rand.New(rand.NewSource(4))
	m := NewMLP(rng, 2, 16, 1)
	m.zeroGrad()
	opt := newAdam(0.01, m.Layers)
	target := func(x0, x1 float64) float64 { return math.Abs(2*x0-3*x1+1) + 1 }
	var loss float64
	for epoch := 0; epoch < 400; epoch++ {
		loss = 0
		for k := 0; k < 32; k++ {
			x0, x1 := rng.Float64(), rng.Float64()
			tape := NewTape()
			out := m.Apply(tape, tape.Const([]float64{x0, x1}))
			l := MSLELoss(tape, out, target(x0, x1))
			loss += l.Data[0]
			tape.Backward(l)
		}
		opt.Step()
	}
	if loss/32 > 0.01 {
		t.Errorf("final MSLE %v, want < 0.01", loss/32)
	}
}

func TestAdamConvergesOnClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 2, 16, 1)
	m.zeroGrad()
	opt := newAdam(0.02, m.Layers)
	label := func(x0, x1 float64) float64 {
		if x0+x1 > 1 {
			return 1
		}
		return 0
	}
	for epoch := 0; epoch < 300; epoch++ {
		for k := 0; k < 32; k++ {
			x0, x1 := rng.Float64(), rng.Float64()
			tape := NewTape()
			out := m.Apply(tape, tape.Const([]float64{x0, x1}))
			tape.Backward(BCEWithLogitsLoss(tape, out, label(x0, x1)))
		}
		opt.Step()
	}
	correct := 0
	const n = 500
	for k := 0; k < n; k++ {
		x0, x1 := rng.Float64(), rng.Float64()
		tape := NewTape()
		out := m.Apply(tape, tape.Const([]float64{x0, x1}))
		pred := 0.0
		if SigmoidScalar(out.Data[0]) > 0.5 {
			pred = 1
		}
		if pred == label(x0, x1) {
			correct++
		}
	}
	if acc := float64(correct) / n; acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95", acc)
	}
}

func TestGradientClipping(t *testing.T) {
	p := []float64{0}
	g := []float64{1000}
	opt := newAdam(0.1, []*Linear{{In: 1, Out: 1, W: p, B: []float64{0}, GW: g, GB: []float64{0}}})
	opt.clipNorm = 1
	opt.Step()
	// After clipping, |g| = 1, Adam first step = lr * sign ~ 0.1.
	if math.Abs(p[0]) > 0.11 {
		t.Errorf("clipped step moved parameter by %v, want <= ~0.1", math.Abs(p[0]))
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := SigmoidScalar(1000); s != 1 {
		t.Errorf("sigmoid(1000) = %v, want 1", s)
	}
	if s := SigmoidScalar(-1000); s != 0 {
		t.Errorf("sigmoid(-1000) = %v, want 0", s)
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		s := SigmoidScalar(x)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpM1Log1pInverse(t *testing.T) {
	f := func(y float64) bool {
		y = math.Abs(y)
		if math.IsInf(y, 0) || y > 1e12 {
			return true
		}
		back := ExpM1(math.Log1p(y))
		return math.Abs(back-y) <= 1e-6*(1+y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if ExpM1(-5) != 0 {
		t.Error("ExpM1 must clamp negatives to 0")
	}
}

func TestTapeMisuse(t *testing.T) {
	tape := NewTape()
	defer func() {
		if recover() == nil {
			t.Error("Backward on vector output must panic")
		}
	}()
	v := tape.Const([]float64{1, 2})
	tape.Backward(v)
}

func TestDimensionMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { tape := NewTape(); tape.Sum(tape.Const([]float64{1}), tape.Const([]float64{1, 2})) },
		func() { tape := NewTape(); tape.Sum() },
		func() {
			rng := rand.New(rand.NewSource(1))
			l := NewLinear(rng, 3, 2)
			tape := NewTape()
			l.Apply(tape, tape.Const([]float64{1}))
		},
		func() { NewMLP(rand.New(rand.NewSource(1)), 3) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, 4, 8, 1)
	want := 4*8 + 8 + 8*1 + 1
	if got := m.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
	if m.InDim() != 4 {
		t.Errorf("InDim = %d, want 4", m.InDim())
	}
}

func TestTapeReset(t *testing.T) {
	tape := NewTape()
	tape.Const([]float64{1})
	if tape.used != 1 {
		t.Fatalf("%d nodes recorded, want 1", tape.used)
	}
	tape.Reset()
	if tape.used != 0 {
		t.Fatalf("%d nodes recorded after Reset, want 0", tape.used)
	}
}
