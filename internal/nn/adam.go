package nn

import "math"

// Adam implements the Adam optimizer over a fixed set of parameter slices.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // global gradient norm clip; 0 disables

	params [][]float64
	grads  [][]float64
	m      [][]float64
	v      [][]float64
	t      int
}

// NewAdam returns an Adam optimizer for the given parameter/gradient
// pairs (as returned by MLP.Params).
func NewAdam(lr float64, params, grads [][]float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5,
		params: params, grads: grads,
	}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p)))
		a.v = append(a.v, make([]float64, len(p)))
	}
	return a
}

// Step applies one Adam update using the accumulated gradients and
// leaves the gradient slices as they were (call ZeroGrads afterwards).
//
// The clip norm is one sequential sum over every gradient in
// registration order — its rounding depends on that order, so it is
// never vectorised — and the clip scale is applied to each gradient as
// it is read (scale 1 is exact when nothing clips). The element update
// itself is independent per element: the AVX kernel runs four elements
// per instruction with the same multiply, add, divide and square-root
// roundings as the Go loop, so both give the same bits.
func (a *Adam) Step() {
	a.t++
	scale := 1.0
	if a.ClipNorm > 0 {
		var norm2 float64
		for _, g := range a.grads {
			for _, x := range g {
				norm2 += x * x
			}
		}
		if norm := math.Sqrt(norm2); norm > a.ClipNorm {
			scale = a.ClipNorm / norm
		}
	}
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for k, p := range a.params {
		g, m, v := a.grads[k], a.m[k], a.v[k]
		if len(g) != len(p) || len(m) != len(p) || len(v) != len(p) {
			panic("nn: Adam parameter, gradient and moment lengths differ")
		}
		if len(p) == 0 {
			continue
		}
		if useAffineAsm {
			adamStepAVX(&p[0], &g[0], &m[0], &v[0], len(p),
				a.Beta1, 1-a.Beta1, a.Beta2, 1-a.Beta2, c1, c2, a.LR, a.Eps, scale)
			continue
		}
		for i := range p {
			gi := g[i] * scale
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mhat := m[i] / c1
			vhat := v[i] / c2
			p[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// ZeroGrads clears every registered gradient slice.
func (a *Adam) ZeroGrads() {
	for _, g := range a.grads {
		clear(g)
	}
}
