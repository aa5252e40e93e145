package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Linear is a fully connected layer y = W*x + b. W stays row-major: the
// backward kernels run their lanes over the input index, along a row of
// W, so the column-major layout of the forward kernels would cost them a
// transpose per sample where the mirror costs one store per weight per
// optimizer step.
//
// GW and GB, the gradient buffers, exist only inside a training fit,
// between AttachGrads and DropGrads, like the training mirror: core's fit
// attaches and drops both on every layer of its model (gnn.Model.Linears),
// on storage the fit's caller lends it, and a layer built by NewLinear,
// or one whose model is done training, holds its weights and biases
// alone. Backpropagating into a layer without them panics.
type Linear struct {
	In, Out int
	W       []float64 // row-major Out x In
	B       []float64
	GW      []float64
	GB      []float64

	// mirror is the training mirror: a one-member StackedLinear holding
	// W transposed and sharing B, which the tape forward runs the way
	// stacked inference does. It exists (has weights) only between
	// AttachMirror and DropMirror (core's fit loop), Adam.Step keeps it
	// equal to W, and gradient shadows share its weights like W. Without
	// it the tape runs affineInto, which makes an inference tape the
	// scalar oracle of the packed inference kernels. It is held by value:
	// a fit builds one per layer, and a pointer would add as many
	// allocations.
	mirror StackedLinear

	// touched is set by every backprop into GW and GB and cleared by
	// FoldGrads: a gradient shadow that no backprop has touched since its
	// last fold holds +0 everywhere, and folding it would add nothing.
	touched bool
}

// NewLinear returns a layer with Kaiming/He-uniform initialized weights
// and no gradient buffers.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	l := zeroLinear(in, out)
	bound := math.Sqrt(6.0 / float64(in))
	for i := range l.W {
		l.W[i] = (rng.Float64()*2 - 1) * bound
	}
	return l
}

// zeroLinear returns a layer whose weights and biases are all zero, and
// no gradient buffers.
func zeroLinear(in, out int) *Linear {
	return &Linear{In: in, Out: out, W: make([]float64, out*in), B: make([]float64, out)}
}

// AttachGrads makes gw (Out·In elements) and gb (Out) the layer's
// gradient buffers, cleared to +0: a fit calls it on every layer of its
// model and of its gradient shadow, beside AttachMirror, before its
// first backprop, and DropGrads when it returns. The storage is the
// caller's — core's fit carves it from its runner's pooled workspace
// (Carve) — and the layer holds it only until DropGrads; it allocates
// nothing.
func (l *Linear) AttachGrads(gw, gb []float64) {
	if len(gw) != l.Out*l.In || len(gb) != l.Out {
		panic(fmt.Sprintf("nn: gradient buffers of %d and %d elements for a %dx%d layer", len(gw), len(gb), l.Out, l.In))
	}
	clear(gw)
	clear(gb)
	l.GW, l.GB = gw, gb
}

// DropGrads detaches the gradient buffers when the fit is done; their
// storage goes back to its owner.
func (l *Linear) DropGrads() { l.GW, l.GB = nil, nil }

// Carve splits the first n elements off slab and returns them, capped at
// n, with the rest of slab from the next 64-byte line on: pieces carved
// one after another from a line-aligned slab each start on a cache line.
// Lines(n) is the length the piece takes of slab.
func Carve(slab []float64, n int) (piece, rest []float64) {
	return slab[:n:n], slab[Lines(n):]
}

// Lines returns n rounded up to whole 64-byte lines of float64s: what
// Carve takes of a slab for a piece of n elements.
func Lines(n int) int { return (n + 7) &^ 7 }

// HasFitState reports whether the layer holds any state that exists only
// inside a fit: gradient buffers or a training mirror.
func (l *Linear) HasFitState() bool { return l.GW != nil || l.GB != nil || l.mirror.W != nil }

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

// MirrorLen returns the elements of storage AttachMirror takes for the
// layer's training mirror: In·Out where the tape forward runs on the
// stacked kernel, 0 where the AVX kernels are unavailable or the layer's
// buffers do not match its dimensions (Apply then stays on affineInto).
func (l *Linear) MirrorLen() int {
	if !useAffineAsm || l.In <= 0 || l.Out <= 0 || len(l.W) != l.In*l.Out || len(l.B) != l.Out {
		return 0
	}
	return l.In * l.Out
}

// AttachMirror makes w, MirrorLen() elements of the caller's storage, the
// layer's training mirror and loads the current weights into it
// (StackedLinear.load), so the tape forward pass runs on the stacked
// kernel. The layer holds w until DropMirror; core's fit carves it from
// its runner's pooled workspace and calls AttachMirror once on every
// layer of its model, beside AttachGrads, before it makes the gradient
// shadow (so GradShadow shares the mirror), and DropMirror when it
// returns. Adam.Step keeps the mirror equal to W; after any other
// in-place weight update while the mirror exists, attach it again on the
// same storage, which reloads it: a stale mirror silently computes with
// old weights. It does nothing where MirrorLen is 0.
func (l *Linear) AttachMirror(w []float64) {
	if l.MirrorLen() == 0 {
		return
	}
	l.mirror = newStack(1, l.In, l.Out, w, l.B)
	l.mirror.load(0, l)
}

// DropMirror detaches the training mirror, whose storage goes back to its
// owner; Apply returns to affineInto.
func (l *Linear) DropMirror() { l.mirror = StackedLinear{} }

// affineTape is the tape ops' forward, leaky(W*x + b, slope) with slope 1
// for the plain affine op: one row through the mirror's kernel when a
// mirror exists, affineInto and leakyReLUInPlace otherwise. The two are
// bit-identical — every output accumulates bias first, then inputs in
// index order, and a negative sum is scaled by the slope once.
func (l *Linear) affineTape(dst, x []float64, slope float64) {
	if l.mirror.W != nil {
		l.mirror.rows(dst, x, 0, 0, 1, slope, slope != 1)
		return
	}
	l.affineInto(dst, x)
	if slope != 1 {
		leakyReLUInPlace(dst, slope)
	}
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
// A layer whose buffers all match its dimensions runs the whole-layer
// assembly kernel backwardKernel picks; anything else takes the Go loop,
// which is also the oracle the kernels are tested against. t lends the
// kernel its scratch. Either way the layer is marked touched.
func (l *Linear) backprop(t *Tape, outGrad []float64, x *Node, fused *Node) {
	if l.GW == nil {
		panic("nn: backprop into a layer without gradient buffers (AttachGrads)")
	}
	l.touched = true
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
	if backwardKernel(l.In, l.Out) == kernelAVX512 {
		affineBackwardAVX512(&l.GW[0], &l.GB[0], &x.Grad[0], &l.W[0], &x.Data[0], &outGrad[0], &act[0], &t.gf[0], alpha, l.In, l.Out)
		return
	}
	affineBackwardAVX(&l.GW[0], &l.GB[0], &x.Grad[0], &l.W[0], &x.Data[0], &outGrad[0], &act[0], &t.gf[0], alpha, l.In, l.Out)
}

// zmmBackwardMinIn is the narrowest layer, in inputs, the ZMM backward
// runs: a block's last vector is aligned to the block's end and may
// overlap the vector before it, which takes eight columns. The encoders'
// first layers of four and seven features stay on the YMM kernel.
const zmmBackwardMinIn = 8

// backwardKernel picks the assembly backward kernel for a layer of in
// inputs and out outputs: the ZMM kernel where the CPU has AVX-512 and
// the layer has at least zmmBackwardMinIn inputs and asmMinOut outputs,
// the YMM kernel otherwise. A single-output layer — every readout's last
// — is one row of work per call, where the ZMM kernel's block set-up and
// masked tail cost more than its width saves: BenchmarkBackwardKernels
// ran 48→1 in 50–64 ns on ZMM against 38–40 ns on YMM. Like asmKernel it
// decides from the CPU and the shape, never from a setting.
func backwardKernel(in, out int) kernelKind {
	if useAVX512 && in >= zmmBackwardMinIn && out >= asmMinOut {
		return kernelAVX512
	}
	return kernelAVX2
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
// (and its training mirror, if one exists right now) with no gradient
// buffers of its own yet: attach them (AttachGrads) before the first
// backprop. A training fit backpropagates each minibatch chunk after the
// first into its shadow, so the chunk's gradients sum from zero on their
// own before being folded into the optimizer's (see FoldGrads).
func (l *Linear) GradShadow() *Linear {
	return &Linear{In: l.In, Out: l.Out, W: l.W, B: l.B, mirror: l.mirror}
}

// FoldGrads adds the gradients of shadow, a gradient shadow of l, into
// l's and leaves the shadow's zeroed and untouched (see AddAndClear) —
// when a backprop has touched the shadow since its last fold. An
// untouched shadow holds +0 everywhere, and adding +0 changes no
// gradient the optimizer holds: those start at +0 (AttachGrads, and
// Adam.Step's clear), and a sum that starts at +0 never becomes -0, the
// one value +0 would change.
// So skipping it gives the bits of the full fold.
func (l *Linear) FoldGrads(shadow *Linear) {
	if !shadow.touched {
		return
	}
	AddAndClear(l.GW, shadow.GW)
	AddAndClear(l.GB, shadow.GB)
	shadow.touched = false
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
	return newMLP(sizes, func(in, out int) *Linear { return NewLinear(rng, in, out) })
}

// ZeroMLP builds an MLP of the given layer sizes whose weights and biases
// are all zero, for a caller that fills them in (a model decoder, a
// clone): it draws no random numbers.
func ZeroMLP(sizes ...int) *MLP { return newMLP(sizes, zeroLinear) }

func newMLP(sizes []int, layer func(in, out int) *Linear) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{Layers: make([]*Linear, 0, len(sizes)-1)}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, layer(sizes[i], sizes[i+1]))
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

// GradShadow returns an MLP sharing this MLP's weights, whose layers
// take gradient buffers of their own (see Linear.GradShadow).
func (m *MLP) GradShadow() *MLP {
	s := &MLP{Layers: make([]*Linear, len(m.Layers))}
	for i, l := range m.Layers {
		s.Layers[i] = l.GradShadow()
	}
	return s
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
