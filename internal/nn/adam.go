package nn

import (
	"fmt"
	"math"
)

// Adam's fixed hyperparameters. They are typed, so 1 - beta1 is the
// difference of 1 and beta1 rounded to float64, not the exact 0.1 an
// untyped constant expression folds to before rounding (another float64):
// the arithmetic the trained weight goldens were recorded with.
const (
	beta1 float64 = 0.9
	beta2 float64 = 0.999
	eps   float64 = 1e-8
)

// Adam implements the Adam optimizer over the weights and biases of a
// fixed list of layers.
type Adam struct {
	lr       float64
	clipNorm float64 // global gradient norm clip; 0 disables

	layers []*Linear
	// moments holds, layer by layer, the first and second moments of W,
	// then those of B, each carved at a line boundary (Carve) from the
	// caller's storage.
	moments []float64
	t       int
}

// AdamMoments returns the length of the moment storage NewAdam takes for
// layers: two moments per weight and bias, each layer's four slices
// rounded up to whole lines.
func AdamMoments(layers []*Linear) int {
	n := 0
	for _, l := range layers {
		n += 2*Lines(len(l.W)) + 2*Lines(len(l.B))
	}
	return n
}

// NewAdam returns an Adam optimizer for layers, stepped in the order
// given (gnn.Model.Linears: the order of Params), whose moments live in
// moments: AdamMoments(layers) elements of the caller's storage, which
// NewAdam clears to +0 and the optimizer holds as long as it is used.
// core's fit carves it from its runner's pooled workspace, beside the
// gradients; NewAdam allocates only the optimizer itself.
func NewAdam(lr float64, layers []*Linear, moments []float64) *Adam {
	if len(moments) != AdamMoments(layers) {
		panic(fmt.Sprintf("nn: Adam moments of %d elements, want %d", len(moments), AdamMoments(layers)))
	}
	clear(moments)
	return &Adam{lr: lr, clipNorm: 5, layers: layers, moments: moments}
}

// adamHyper is one step's values of the element update beside the fixed
// hyperparameters: the bias corrections c1 and c2, the rate and the clip
// scale.
type adamHyper struct {
	c1, c2, lr, scale float64
}

// Step applies one Adam update using the accumulated gradients, clears
// them to +0 and, where a layer has a training mirror, leaves the mirror
// equal to the updated weights: one pass over each layer's W and one over
// its B, in layer order.
//
// The clip norm is one sequential sum over every gradient, W then B
// layer by layer — its rounding depends on that order, so it is never
// vectorised — and the clip scale is applied to each gradient as it is
// read (scale 1 is exact when nothing clips). The element update itself
// is independent per element: the AVX kernel runs four elements per
// instruction with the same multiply, add, divide and square-root
// roundings as the Go loop, so both give the same bits.
func (a *Adam) Step() {
	a.t++
	scale := 1.0
	if a.clipNorm > 0 {
		var norm2 float64
		for _, l := range a.layers {
			for _, x := range l.GW {
				norm2 += x * x
			}
			for _, x := range l.GB {
				norm2 += x * x
			}
		}
		if norm := math.Sqrt(norm2); norm > a.clipNorm {
			scale = a.clipNorm / norm
		}
	}
	h := adamHyper{
		c1: 1 - math.Pow(beta1, float64(a.t)), c2: 1 - math.Pow(beta2, float64(a.t)),
		lr: a.lr, scale: scale,
	}
	rest := a.moments
	for _, l := range a.layers {
		var mw, vw, mb, vb []float64
		mw, rest = Carve(rest, len(l.W))
		vw, rest = Carve(rest, len(l.W))
		mb, rest = Carve(rest, len(l.B))
		vb, rest = Carve(rest, len(l.B))
		l.adamStep(mw, vw, mb, vb, &h)
	}
}

// adamStep is Step's update of one layer: W with its mirror, from its
// moments mw and vw, then B from mb and vb (the mirror shares B, so it
// needs no copy). The assembly kernel writes each updated weight of row
// o into column o of the mirror as it goes; the Go loop, where a mirror
// exists at all, reloads it afterwards. Both clear every gradient they
// read.
func (l *Linear) adamStep(mw, vw, mb, vb []float64, h *adamHyper) {
	nw, nb := len(l.W), len(l.B)
	if len(l.GW) != nw || len(l.GB) != nb || len(mw) != nw || len(vw) != nw || len(mb) != nb || len(vb) != nb {
		panic("nn: Adam parameter, gradient and moment lengths differ")
	}
	if useAffineAsm {
		rows, cols, mt := 1, nw, (*float64)(nil)
		if l.mirror.W != nil {
			rows, cols, mt = l.Out, l.In, &l.mirror.W[0]
		}
		adamRows(l.W, l.GW, mw, vw, mt, rows, cols, h)
		adamRows(l.B, l.GB, mb, vb, nil, 1, nb, h)
		return
	}
	h.update(l.W, l.GW, mw, vw)
	h.update(l.B, l.GB, mb, vb)
	if l.mirror.W != nil {
		l.mirror.load(0, l)
	}
}

// adamRows runs adamRowsAVX over the rows×cols elements of p.
func adamRows(p, g, m, v []float64, mt *float64, rows, cols int, h *adamHyper) {
	if len(p) == 0 {
		return
	}
	adamRowsAVX(&p[0], &g[0], &m[0], &v[0], mt, rows, cols,
		beta1, 1-beta1, beta2, 1-beta2, h.c1, h.c2, h.lr, eps, h.scale)
}

// update is the element update as a Go loop, the oracle of adamRowsAVX:
// it clears each gradient once read.
func (h *adamHyper) update(p, g, m, v []float64) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for i := range p {
		gi := g[i] * h.scale
		g[i] = 0
		m[i] = beta1*m[i] + (1-beta1)*gi
		v[i] = beta2*v[i] + (1-beta2)*gi*gi
		mhat := m[i] / h.c1
		vhat := v[i] / h.c2
		p[i] -= h.lr * mhat / (math.Sqrt(vhat) + eps)
	}
}
