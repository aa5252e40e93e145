package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestScaleGradCheck(t *testing.T) {
	a := []float64{0.5, -1.5}
	forward := func() float64 {
		tape := NewTape()
		n := tape.Const(a)
		s := tape.Scale(n, 3)
		return s.Data[0] + 2*s.Data[1]
	}
	tape := NewTape()
	n := tape.Const(a)
	s := tape.Scale(n, 3)
	var out *Node
	out = tape.customOp([]float64{s.Data[0] + 2*s.Data[1]}, func() {
		s.Grad[0] += out.Grad[0]
		s.Grad[1] += 2 * out.Grad[0]
	})
	tape.Backward(out)
	const h = 1e-6
	for i := range a {
		orig := a[i]
		a[i] = orig + h
		lp := forward()
		a[i] = orig - h
		lm := forward()
		a[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(n.Grad[i]-want) > 1e-5 {
			t.Errorf("Scale grad[%d] = %v, want %v", i, n.Grad[i], want)
		}
	}
}

func TestTapeReuseAfterReset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 2, 4, 1)
	tape := NewTape()
	x := []float64{0.5, -0.5}
	out1 := m.Apply(tape, tape.Const(x))
	v1 := out1.Data[0]
	tape.Reset()
	out2 := m.Apply(tape, tape.Const(x))
	if out2.Data[0] != v1 {
		t.Errorf("reused tape changed forward value: %v vs %v", out2.Data[0], v1)
	}
	// Backward on the reused tape must work and produce gradients.
	m.zeroGrad()
	tape.Backward(MSLELoss(tape, out2, 3))
	grads := m.grads()
	nonzero := false
	for _, g := range grads {
		for _, v := range g {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Error("no gradients after backward on reused tape")
	}
}

func TestLeakyReLUNegativeSlope(t *testing.T) {
	xs := []float64{-2, 2}
	leakyReLUInPlace(xs, 0.1)
	if xs[0] != -0.2 || xs[1] != 2 {
		t.Errorf("LeakyReLU = %v, want [-0.2 2]", xs)
	}
}

func TestBCEExtremeLogitsFinite(t *testing.T) {
	for _, x := range []float64{-500, 0, 500} {
		for _, y := range []float64{0, 1} {
			tape := NewTape()
			logit := tape.Const([]float64{x})
			l := BCEWithLogitsLoss(tape, logit, y)
			if math.IsNaN(l.Data[0]) || math.IsInf(l.Data[0], 0) {
				t.Errorf("BCE(%v, %v) = %v", x, y, l.Data[0])
			}
			if l.Data[0] < 0 {
				t.Errorf("BCE(%v, %v) = %v, want >= 0", x, y, l.Data[0])
			}
		}
	}
}

func TestMSLEZeroAtPerfectPrediction(t *testing.T) {
	tape := NewTape()
	z := tape.Const([]float64{math.Log1p(42)})
	l := MSLELoss(tape, z, 42)
	if l.Data[0] > 1e-12 {
		t.Errorf("loss at perfect prediction = %v", l.Data[0])
	}
}
