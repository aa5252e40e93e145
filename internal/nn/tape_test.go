package nn

import (
	"math/rand"
	"testing"
)

// TestFusedAffineMatchesUnfused pins MLP.Apply's fused affine+LeakyReLU
// op to the explicit composition of Linear.Apply and a separate
// LeakyReLU: identical forward values and identical gradients.
func TestFusedAffineMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMLP(rng, 4, 6, 1)
	x := []float64{0.4, -1.2, 0.7, 2.3}

	m.zeroGrad()
	tf := NewTape()
	fused := m.Apply(tf, tf.Const(x))
	tf.Backward(MSLELoss(tf, fused, 5))
	grads := m.grads()
	fusedGrads := make([][]float64, len(grads))
	for k, g := range grads {
		fusedGrads[k] = append([]float64(nil), g...)
	}

	m.zeroGrad()
	tu := NewTape()
	h := tu.Const(x)
	for i, l := range m.Layers {
		h = l.Apply(tu, h)
		if i+1 < len(m.Layers) {
			h = tu.leakyReLU(h, leakySlope)
		}
	}
	if h.Data[0] != fused.Data[0] {
		t.Fatalf("fused forward %v != unfused %v", fused.Data[0], h.Data[0])
	}
	tu.Backward(MSLELoss(tu, h, 5))
	for k, g := range grads {
		for i := range g {
			if g[i] != fusedGrads[k][i] {
				t.Fatalf("grad %d[%d]: fused %v != unfused %v", k, i, fusedGrads[k][i], g[i])
			}
		}
	}
}

// TestInferenceTapeSkipsGradAndRejectsBackward covers the gradient-free
// tape mode.
func TestInferenceTapeSkipsGradAndRejectsBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMLP(rng, 3, 5, 1)
	x := []float64{0.1, -0.5, 0.9}

	it := NewInferenceTape()
	out := m.Apply(it, it.Const(x))
	tt := NewTape()
	want := m.Apply(tt, tt.Const(x))
	if out.Data[0] != want.Data[0] {
		t.Fatalf("inference forward %v != training forward %v", out.Data[0], want.Data[0])
	}
	if out.Grad != nil {
		t.Fatal("inference tape allocated a gradient buffer")
	}
	l := MSLELoss(it, out, 2)
	defer func() {
		if recover() == nil {
			t.Error("Backward on inference tape must panic")
		}
	}()
	it.Backward(l)
}

// TestTapeReuseGradsMatchFreshTape trains the reuse guarantee: backward
// on a reused (Reset) tape accumulates exactly the gradients a fresh tape
// would.
func TestTapeReuseGradsMatchFreshTape(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMLP(rng, 3, 8, 8, 1)
	xs := [][]float64{{0.2, -0.3, 1.4}, {2.0, 0.1, -0.7}, {-1, -1, -1}}

	fresh := func(x []float64) []float64 {
		m.zeroGrad()
		tape := NewTape()
		out := m.Apply(tape, tape.Const(x))
		tape.Backward(MSLELoss(tape, out, 7))
		grads := m.grads()
		var flat []float64
		for _, g := range grads {
			flat = append(flat, g...)
		}
		return flat
	}
	want := make([][]float64, len(xs))
	for i, x := range xs {
		want[i] = fresh(x)
	}

	reused := NewTape()
	for round := 0; round < 2; round++ {
		for i, x := range xs {
			m.zeroGrad()
			reused.Reset()
			out := m.Apply(reused, reused.Const(x))
			reused.Backward(MSLELoss(reused, out, 7))
			grads := m.grads()
			j := 0
			for _, g := range grads {
				for _, v := range g {
					if v != want[i][j] {
						t.Fatalf("round %d input %d: reused-tape grad[%d] = %v, want %v", round, i, j, v, want[i][j])
					}
					j++
				}
			}
		}
	}
}

// TestTapeSteadyStateAllocs pins the arena guarantee at the nn level: a
// warmed tape records and backpropagates a full MLP forward+loss pass
// with zero heap allocations.
func TestTapeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := NewMLP(rng, 6, 16, 16, 1)
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	m.zeroGrad()
	tape := NewTape()
	step := func() {
		tape.Reset()
		out := m.Apply(tape, tape.Const(x))
		tape.Backward(MSLELoss(tape, out, 3))
	}
	for i := 0; i < 3; i++ {
		step() // warm the arena
	}
	if avg := testing.AllocsPerRun(100, step); avg > 0 {
		t.Errorf("steady-state allocs per pass = %v, want 0", avg)
	}
}
