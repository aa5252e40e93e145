package nn

import "fmt"

// Dense kernels: tape-free, row-batched matrix-matrix ops for stacked
// ensemble inference. Where Linear/MLP evaluate one activation vector at
// a time (and Tape records one op per call), the kernels here advance a
// whole row batch — all k ensemble members of a node, or all nodes of a
// kind — through one fused affine(+LeakyReLU) pass with zero allocations.
// Strided addressing lets callers keep activations in an interleaved
// node-major, member-block layout without gather/scatter copies between
// layers.
//
// Every kernel accumulates each output element in exactly the order of
// Linear.affineInto (bias first, then inputs in index order), so a stack
// is bit-identical to MLP.Apply on an inference tape — the scalar oracle —
// on the same weights. On amd64 with AVX a layer is one call of an
// assembly kernel — affine, LeakyReLU and the row loop — and no Go code
// touches an output element afterwards; the portable affineRowsStrided is
// every other build's path and the oracle the assembly is tested against.

// forwardKernel names an implementation of the fused affine+LeakyReLU
// forward pass. All three compute the same bits.
type forwardKernel uint8

const (
	kernelPortable forwardKernel = iota // affineRowsStrided: Go, row-major weights
	kernelAVX2                          // affineLeakyAVX: 4 outputs to a YMM vector
	kernelAVX512                        // affineLeakyAVX512: 8 outputs to a ZMM vector
)

func (k forwardKernel) String() string {
	return [...]string{"portable", "avx2", "avx512"}[k]
}

// zmmMinOut is the narrowest layer the ZMM kernel runs. A single-output
// layer — every readout's last — stays on the YMM kernel, whose scalar
// tail is one multiply and one add per input where the ZMM kernel spends
// a masked vector and a block set-up on it: in BenchmarkAffineKernels,
// two sessions, 48→1 ran 1.2–1.4 against 1.6–2.1 ns/MAC at one row and
// 0.59–0.72 against 0.70–0.83 at 31–32 rows. From two outputs up the ZMM
// kernel was as fast or faster at every width measured.
const zmmMinOut = 2

// asmKernel picks the assembly forward kernel for a layer of out outputs:
// the ZMM kernel where the CPU has AVX-512 and the layer is at least
// zmmMinOut wide, the YMM kernel otherwise. The choice is made from the
// CPU at package init and the layer's width, never from a setting.
func asmKernel(out int) forwardKernel {
	if useAVX512 && out >= zmmMinOut {
		return kernelAVX512
	}
	return kernelAVX2
}

// ForwardKernel names the forward kernel this process runs on its layers
// of more than one output, every hidden layer of the models included:
// "avx512", "avx2" (the YMM kernel, which needs only AVX) or
// "portable". It is fixed at package init by what the CPU supports.
func ForwardKernel() string {
	if !useAffineAsm {
		return kernelPortable.String()
	}
	return asmKernel(zmmMinOut).String()
}

// affineRowsStrided computes, for each row r in [0, rows):
//
//	x_r = x[xOff+r*xStride : +in]
//	y_r = dst[dstOff+r*dstStride : +out]
//	y_r[o] = b[o] + Σ_i w[o*in+i]·x_r[i]   (then LeakyReLU when act)
//
// w is row-major out×in. The per-element accumulation order matches
// Linear.affineInto and leakyReLUInPlace exactly.
//
// Outputs are blocked four at a time: each output's sum is a strictly
// sequential floating-point dependency chain, so a lone accumulator is bound by
// FP-add latency, not throughput. Four outputs give four independent
// chains over one streamed pass of x_r — the per-output accumulation
// order (and thus the bits) is unchanged.
func affineRowsStrided(dst []float64, dstOff, dstStride int, x []float64, xOff, xStride, rows int, w, b []float64, in, out int, alpha float64, act bool) {
	for r := 0; r < rows; r++ {
		xr := x[xOff+r*xStride : xOff+r*xStride+in]
		yr := dst[dstOff+r*dstStride : dstOff+r*dstStride+out]
		o := 0
		for ; o+8 <= out; o += 8 {
			w0 := w[o*in : o*in+in][:len(xr)]
			w1 := w[(o+1)*in : (o+1)*in+in][:len(xr)]
			w2 := w[(o+2)*in : (o+2)*in+in][:len(xr)]
			w3 := w[(o+3)*in : (o+3)*in+in][:len(xr)]
			w4 := w[(o+4)*in : (o+4)*in+in][:len(xr)]
			w5 := w[(o+5)*in : (o+5)*in+in][:len(xr)]
			w6 := w[(o+6)*in : (o+6)*in+in][:len(xr)]
			w7 := w[(o+7)*in : (o+7)*in+in][:len(xr)]
			s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
			s4, s5, s6, s7 := b[o+4], b[o+5], b[o+6], b[o+7]
			for i, xi := range xr {
				s0 += w0[i] * xi
				s1 += w1[i] * xi
				s2 += w2[i] * xi
				s3 += w3[i] * xi
				s4 += w4[i] * xi
				s5 += w5[i] * xi
				s6 += w6[i] * xi
				s7 += w7[i] * xi
			}
			if act {
				if s0 < 0 {
					s0 = alpha * s0
				}
				if s1 < 0 {
					s1 = alpha * s1
				}
				if s2 < 0 {
					s2 = alpha * s2
				}
				if s3 < 0 {
					s3 = alpha * s3
				}
				if s4 < 0 {
					s4 = alpha * s4
				}
				if s5 < 0 {
					s5 = alpha * s5
				}
				if s6 < 0 {
					s6 = alpha * s6
				}
				if s7 < 0 {
					s7 = alpha * s7
				}
			}
			yr[o], yr[o+1], yr[o+2], yr[o+3] = s0, s1, s2, s3
			yr[o+4], yr[o+5], yr[o+6], yr[o+7] = s4, s5, s6, s7
		}
		for ; o+4 <= out; o += 4 {
			w0 := w[o*in : o*in+in][:len(xr)]
			w1 := w[(o+1)*in : (o+1)*in+in][:len(xr)]
			w2 := w[(o+2)*in : (o+2)*in+in][:len(xr)]
			w3 := w[(o+3)*in : (o+3)*in+in][:len(xr)]
			s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
			for i, xi := range xr {
				s0 += w0[i] * xi
				s1 += w1[i] * xi
				s2 += w2[i] * xi
				s3 += w3[i] * xi
			}
			if act {
				if s0 < 0 {
					s0 = alpha * s0
				}
				if s1 < 0 {
					s1 = alpha * s1
				}
				if s2 < 0 {
					s2 = alpha * s2
				}
				if s3 < 0 {
					s3 = alpha * s3
				}
			}
			yr[o], yr[o+1], yr[o+2], yr[o+3] = s0, s1, s2, s3
		}
		for ; o < out; o++ {
			sum := b[o]
			row := w[o*in : o*in+in][:len(xr)]
			for i, xi := range xr {
				sum += row[i] * xi
			}
			if act && sum < 0 {
				sum = alpha * sum
			}
			yr[o] = sum
		}
	}
}

// affineRowsTrans is affineRowsStrided on the transposed weight layout:
// one call of the assembly kernel k (kernelAVX2 or kernelAVX512) covers
// the whole row batch, LeakyReLU included — the kernel scales negative
// accumulators by its slope before the store (the same compare-and-scale
// per element as the portable kernel, so the bits match), and slope 1 is
// the linear layer.
func affineRowsTrans(k forwardKernel, dst []float64, dstOff, dstStride int, x []float64, xOff, xStride, rows int, wt, b []float64, in, out int, alpha float64, act bool) {
	if rows == 0 {
		return
	}
	if !act {
		alpha = 1
	}
	// The kernel is handed bare pointers: check the last row's extent (and
	// with it every earlier row's) here.
	last := rows - 1
	y := dst[dstOff : dstOff+last*dstStride+out]
	xs := x[xOff : xOff+last*xStride+in]
	if k == kernelAVX512 {
		affineLeakyAVX512(&y[0], &xs[0], &wt[:in*out][0], &b[:out][0], in, out, rows, dstStride, xStride, alpha)
		return
	}
	affineLeakyAVX(&y[0], &xs[0], &wt[:in*out][0], &b[:out][0], in, out, rows, dstStride, xStride, alpha)
}

// StackedLinear is k independently weighted Linear layers of identical
// shape evaluated through one batched kernel: member m's weights occupy
// block m of the member-major weight and bias buffers. The weights are
// copied at stack time — a stack goes stale when a member's weights are
// updated in place and must be rebuilt. The kernel is picked at stack
// time too: the ZMM kernel on AVX-512 CPUs for layers of more than one
// output, the YMM kernel for single-output layers and AVX-only CPUs, the
// portable Go kernel everywhere else. All three give the same bits.
type StackedLinear struct {
	K, In, Out int
	// W holds K member blocks in the layout the layer's kernel streams:
	// column-major In×Out for the assembly kernels (outputs in adjacent
	// lanes, unit-stride "all outputs for input i"), row-major Out×In for
	// the portable one.
	W      []float64
	B      []float64 // K blocks of Out
	kernel forwardKernel
}

// StackLinears copies k same-shape layers into one stacked layer, laid
// out for the assembly kernels when this build and CPU have them.
func StackLinears(ls []*Linear) (*StackedLinear, error) {
	if len(ls) == 0 {
		return nil, fmt.Errorf("nn: stacking zero layers")
	}
	in, out := ls[0].In, ls[0].Out
	s := &StackedLinear{
		K: len(ls), In: in, Out: out,
		W: make([]float64, len(ls)*out*in),
		B: make([]float64, len(ls)*out),
	}
	if useAffineAsm {
		s.kernel = asmKernel(out)
	}
	for m, l := range ls {
		if l.In != in || l.Out != out {
			return nil, fmt.Errorf("nn: layer %d is %dx%d, want %dx%d", m, l.Out, l.In, out, in)
		}
		wm := s.W[m*out*in : (m+1)*out*in]
		copy(s.B[m*out:(m+1)*out], l.B[:out])
		if s.kernel == kernelPortable {
			copy(wm, l.W[:out*in])
			continue
		}
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				wm[i*out+o] = l.W[o*in+i]
			}
		}
	}
	return s, nil
}

// rows advances a row batch through every member: member m reads its In
// inputs of row r at x[m*xBlock+r*xStride:] and writes its Out outputs at
// column offset m·Out of the rows×(K·Out) dst.
func (s *StackedLinear) rows(dst, x []float64, xBlock, xStride, rows int, alpha float64, act bool) {
	for m := 0; m < s.K; m++ {
		w, b := s.W[m*s.Out*s.In:(m+1)*s.Out*s.In], s.B[m*s.Out:(m+1)*s.Out]
		if s.kernel != kernelPortable {
			affineRowsTrans(s.kernel, dst, m*s.Out, s.K*s.Out, x, m*xBlock, xStride, rows, w, b, s.In, s.Out, alpha, act)
		} else {
			affineRowsStrided(dst, m*s.Out, s.K*s.Out, x, m*xBlock, xStride, rows, w, b, s.In, s.Out, alpha, act)
		}
	}
}

// BlockRows advances rows interleaved member-block rows: x is rows×(K·In)
// with member m's input at column offset m·In, dst is rows×(K·Out).
// Member m's rows all go through member m's weights.
func (s *StackedLinear) BlockRows(dst, x []float64, rows int, alpha float64, act bool) {
	s.rows(dst, x, s.In, s.K*s.In, rows, alpha, act)
}

// DenseScratch holds the ping-pong activation buffers of a StackedMLP
// forward pass. One scratch serves one goroutine; buffers grow on demand
// and are reused across calls, so the steady-state pass allocates nothing.
type DenseScratch struct {
	a, b []float64
}

// Grow returns buf resized to n elements, reallocating only when its
// capacity is short; the contents are unspecified. A reallocation leaves a
// quarter of headroom: the sizes asked of a pooled scratch follow a
// high-water mark that creeps (a tile's distinct row count), and an exact
// fit reallocated the whole plane for every few rows it rose.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}

// StackedMLP is k same-architecture MLPs evaluated as one row-batched
// kernel stack. Hidden layers run the fused affine+LeakyReLU kernel, the
// final layer stays linear — mirroring MLP.Apply layer for layer.
type StackedMLP struct {
	K      int
	Layers []*StackedLinear
}

// StackMLPs vertically stacks k MLPs of identical layer shapes. The
// weights are copied; rebuild the stack after updating any member's
// weights in place.
func StackMLPs(ms []*MLP) (*StackedMLP, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("nn: stacking zero MLPs")
	}
	depth := len(ms[0].Layers)
	s := &StackedMLP{K: len(ms)}
	for _, m := range ms {
		if len(m.Layers) != depth {
			return nil, fmt.Errorf("nn: stacking MLPs of depth %d and %d", depth, len(m.Layers))
		}
	}
	for li := 0; li < depth; li++ {
		layers := make([]*Linear, len(ms))
		for m, mlp := range ms {
			layers[m] = mlp.Layers[li]
		}
		sl, err := StackLinears(layers)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", li, err)
		}
		s.Layers = append(s.Layers, sl)
	}
	return s, nil
}

// InDim returns the per-member input dimension.
func (s *StackedMLP) InDim() int { return s.Layers[0].In }

// maxWidth is the widest per-member activation produced by any layer.
func (s *StackedMLP) maxWidth() int {
	w := 0
	for _, l := range s.Layers {
		w = max(w, l.Out)
	}
	return w
}

// forward runs the whole stack on rows input rows; xBlock and xStride
// address the first layer's input (see StackedLinear.rows), every later
// layer reads the interleaved member-block output of the one before.
func (s *StackedMLP) forward(dst, x []float64, xBlock, xStride, rows int, sc *DenseScratch) {
	last := len(s.Layers) - 1
	if last == 0 {
		s.Layers[0].rows(dst, x, xBlock, xStride, rows, leakySlope, false)
		return
	}
	n := rows * s.K * s.maxWidth()
	sc.a, sc.b = Grow(sc.a, n), Grow(sc.b, n)
	cur, next := sc.a, sc.b
	s.Layers[0].rows(cur, x, xBlock, xStride, rows, leakySlope, true)
	for li := 1; li < last; li++ {
		s.Layers[li].BlockRows(next, cur, rows, leakySlope, true)
		cur, next = next, cur
	}
	s.Layers[last].BlockRows(dst, cur, rows, leakySlope, false)
}

// ForwardShared runs the whole stack on rows input rows shared by every
// member: x is rows×InDim, dst is rows×(K·OutDim). It is bit-identical
// per member to MLP.Apply on an inference tape, row by row.
func (s *StackedMLP) ForwardShared(dst, x []float64, rows int, sc *DenseScratch) {
	s.forward(dst, x, 0, s.InDim(), rows, sc)
}

// ForwardBlocks runs the stack on rows interleaved member-block rows: x
// is rows×(K·InDim) with member m's input at offset m·InDim, dst is
// rows×(K·OutDim).
func (s *StackedMLP) ForwardBlocks(dst, x []float64, rows int, sc *DenseScratch) {
	s.forward(dst, x, s.InDim(), s.K*s.InDim(), rows, sc)
}
