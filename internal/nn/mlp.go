package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Linear is a fully connected layer y = W*x + b with gradient buffers.
type Linear struct {
	In, Out int
	W       []float64 // row-major Out x In
	B       []float64
	GW      []float64
	GB      []float64

	// wt is the training mirror: W transposed to In x Out, the layout
	// the assembly forward kernels stream. It exists only between
	// RefreshMirror and DropMirror (core's fit loop) and is shared by
	// gradient shadows like W. Without it the tape runs affineInto, which makes an inference
	// tape the scalar oracle of the packed inference kernels.
	wt []float64
}

// NewLinear returns a layer with Kaiming/He-uniform initialized weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:  make([]float64, out*in),
		B:  make([]float64, out),
		GW: make([]float64, out*in),
		GB: make([]float64, out),
	}
	bound := math.Sqrt(6.0 / float64(in))
	for i := range l.W {
		l.W[i] = (rng.Float64()*2 - 1) * bound
	}
	return l
}

// affineInto computes y = W*x + b into dst: the tape's forward wherever
// no training mirror exists, and the per-element accumulation order every
// kernel in this package reproduces.
func (l *Linear) affineInto(dst, x []float64) {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Linear input dim %d, want %d", len(x), l.In))
	}
	for o := 0; o < l.Out; o++ {
		sum := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		dst[o] = sum
	}
}

// RefreshMirror copies the current weights into the transposed training
// mirror, allocating it on first use, so the tape forward pass runs on
// the AVX kernel. Call it after every in-place weight update while the
// mirror exists: a stale mirror silently computes with old weights. It
// does nothing where the AVX kernels are unavailable or the layer's
// buffers do not match its dimensions; Apply then stays on affineInto.
func (l *Linear) RefreshMirror() {
	if !useAffineAsm || l.In <= 0 || l.Out <= 0 || len(l.W) != l.In*l.Out || len(l.B) != l.Out {
		return
	}
	if len(l.wt) != len(l.W) {
		l.wt = make([]float64, len(l.W))
	}
	for o := 0; o < l.Out; o++ {
		for i, w := range l.W[o*l.In : (o+1)*l.In] {
			l.wt[i*l.Out+o] = w
		}
	}
}

// DropMirror releases the training mirror; Apply returns to affineInto.
func (l *Linear) DropMirror() { l.wt = nil }

// affineTape is the tape ops' forward, leaky(W*x + b, slope) with slope 1
// for the plain affine op: one call of the fused assembly kernel that
// asmKernel picks for the layer, over the mirror, when one exists;
// affineInto and leakyReLUInPlace otherwise. The two are bit-identical —
// every output accumulates bias first, then inputs in index order, and a
// negative sum is scaled by the slope once.
func (l *Linear) affineTape(dst, x []float64, slope float64) {
	if l.wt == nil {
		l.affineInto(dst, x)
		if slope != 1 {
			leakyReLUInPlace(dst, slope)
		}
		return
	}
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Linear input dim %d, want %d", len(x), l.In))
	}
	if l.In <= 0 || l.Out <= 0 || len(dst) != l.Out || len(l.wt) != l.In*l.Out || len(l.B) != l.Out {
		panic("nn: Linear training mirror does not match the layer")
	}
	affineRowsTrans(asmKernel(l.Out), dst, 0, 0, x, 0, 0, 1, l.wt, l.B, l.In, l.Out, slope, true)
}

// Apply records y = W*x + b on the tape as a single affine op.
func (l *Linear) Apply(t *Tape, x *Node) *Node {
	out := t.alloc(l.Out)
	l.affineTape(out.Data, x.Data, 1)
	out.op, out.a, out.lin = opAffine, x, l
	return out
}

// applyLeaky records the fused affine+LeakyReLU op leaky(W*x + b,
// leakySlope), the MLP hidden layer: one recorded node and one backward
// dispatch where Apply and a separate activation would take two, with the
// same arithmetic forward and backward. The backward infers the
// pre-activation sign from the post-activation value, which the positive
// slope preserves.
func (l *Linear) applyLeaky(t *Tape, x *Node) *Node {
	out := t.alloc(l.Out)
	l.affineTape(out.Data, x.Data, leakySlope)
	out.op, out.a, out.lin = opAffineLReLU, x, l
	return out
}

// backprop accumulates the affine op's gradients: weight and bias
// gradients into the layer's buffers, input gradients into x. For the
// fused affine+LeakyReLU op, fused is the output node: its post-activation
// sign recovers the pre-activation sign (leakySlope > 0 preserves it).
//
// A layer whose buffers all match its dimensions runs the whole-layer AVX
// kernel; anything else takes the Go loop, which is also the oracle the
// kernel is tested against. t lends the kernel its scratch.
func (l *Linear) backprop(t *Tape, outGrad []float64, x *Node, fused *Node) {
	n := l.In * l.Out
	if !useAffineAsm || l.In <= 0 || l.Out <= 0 ||
		len(l.W) != n || len(l.GW) != n || len(l.GB) != l.Out ||
		len(outGrad) != l.Out || len(x.Data) != l.In || len(x.Grad) != l.In ||
		(fused != nil && len(fused.Data) != l.Out) {
		l.backpropScalar(outGrad, x, fused)
		return
	}
	// Unfused, the kernel is handed the gradient as its own activation
	// with slope 1: g < 0 selects g*1, which is g exactly.
	act, alpha := outGrad, 1.0
	if fused != nil {
		act, alpha = fused.Data, leakySlope
	}
	t.gf = Grow(t.gf, l.Out)
	affineBackwardAVX(&l.GW[0], &l.GB[0], &x.Grad[0], &l.W[0], &x.Data[0], &outGrad[0], &act[0], &t.gf[0], alpha, l.In, l.Out)
}

func (l *Linear) backpropScalar(outGrad []float64, x *Node, fused *Node) {
	for o := 0; o < l.Out; o++ {
		g := outGrad[o]
		if fused != nil && fused.Data[o] < 0 {
			g *= leakySlope
		}
		if g == 0 {
			continue
		}
		row := l.W[o*l.In : (o+1)*l.In]
		grow := l.GW[o*l.In : (o+1)*l.In]
		for i, xi := range x.Data {
			grow[i] += g * xi
			x.Grad[i] += g * row[i]
		}
		l.GB[o] += g
	}
}

// GradShadow returns a layer sharing this layer's weight and bias slices
// (and its training mirror, if one exists right now) but owning fresh
// zeroed gradient buffers. A training fit backpropagates each minibatch
// chunk after the first into its shadow, so the chunk's gradients sum
// from zero on their own before being folded into the optimizer's.
func (l *Linear) GradShadow() *Linear {
	return &Linear{
		In: l.In, Out: l.Out,
		W: l.W, B: l.B, wt: l.wt,
		GW: make([]float64, len(l.GW)),
		GB: make([]float64, len(l.GB)),
	}
}

// Params returns the parameter and gradient slices of the layer, in
// matching order, for use by optimizers.
func (l *Linear) Params() (params, grads [][]float64) {
	return [][]float64{l.W, l.B}, [][]float64{l.GW, l.GB}
}

// leakySlope is the negative slope of every LeakyReLU in the package:
// MLP hidden layers and the StackedMLP kernels that mirror them.
const leakySlope = 0.01

// MLP is a multi-layer perceptron with LeakyReLU activations (slope
// leakySlope) between layers and a linear final layer.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer sizes, e.g. NewMLP(rng, 16,
// 32, 32, 1) has two hidden layers of width 32.
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, sizes[i], sizes[i+1]))
	}
	return m
}

// Apply records the MLP forward pass on the tape. Hidden layers record
// the fused affine+LeakyReLU op; the final layer stays linear.
func (m *MLP) Apply(t *Tape, x *Node) *Node {
	h := x
	last := len(m.Layers) - 1
	for _, l := range m.Layers[:last] {
		h = l.applyLeaky(t, h)
	}
	return m.Layers[last].Apply(t, h)
}

// GradShadow returns an MLP sharing this MLP's weights but owning private
// zeroed gradient buffers (see Linear.GradShadow).
func (m *MLP) GradShadow() *MLP {
	s := &MLP{Layers: make([]*Linear, len(m.Layers))}
	for i, l := range m.Layers {
		s.Layers[i] = l.GradShadow()
	}
	return s
}

// RefreshMirror refreshes every layer's training mirror (see
// Linear.RefreshMirror).
func (m *MLP) RefreshMirror() {
	for _, l := range m.Layers {
		l.RefreshMirror()
	}
}

// DropMirror releases every layer's training mirror.
func (m *MLP) DropMirror() {
	for _, l := range m.Layers {
		l.DropMirror()
	}
}

// AddAndClear adds src into dst element by element and zeroes src: it
// folds a gradient shadow into the optimizer's gradients after each
// minibatch chunk and leaves the shadow ready for the next chunk. Each
// element is one addition, so the AVX kernel and the Go loop give the
// same bits.
func AddAndClear(dst, src []float64) {
	if len(dst) != len(src) {
		panic("nn: AddAndClear length mismatch")
	}
	if len(src) == 0 {
		return
	}
	if useAffineAsm {
		addClearAVX(&dst[0], &src[0], len(src))
		return
	}
	for i, v := range src {
		dst[i] += v
	}
	clear(src)
}

// leakyReLUInPlace scales every negative element by alpha: the
// activation of the fused op where no training mirror exists, and the
// per-element compare-and-scale every kernel in this package reproduces.
func leakyReLUInPlace(xs []float64, alpha float64) {
	for i, x := range xs {
		if x < 0 {
			xs[i] = alpha * x
		}
	}
}

// InDim returns the expected input dimension.
func (m *MLP) InDim() int { return m.Layers[0].In }

// Params returns all parameter/gradient slice pairs of the network.
func (m *MLP) Params() (params, grads [][]float64) {
	for _, l := range m.Layers {
		p, g := l.Params()
		params = append(params, p...)
		grads = append(grads, g...)
	}
	return params, grads
}

// NumParams returns the total number of scalar parameters.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W) + len(l.B)
	}
	return n
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
