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
// on the same weights. On amd64 with AVX a layer of two or more outputs
// is one call of an assembly kernel — affine, LeakyReLU and the row loop
// — and no Go code touches an output element afterwards; the portable
// affineRowsStrided is every other build's path, every single-output
// layer's (asmMinOut), and the oracle the assembly is tested against.

// kernelKind names an implementation of a layer kernel: the fused
// affine+LeakyReLU forward or the layer backward. Every kind of a
// direction computes the same bits.
type kernelKind uint8

const (
	kernelPortable kernelKind = iota // Go loops: affineRowsStrided, backpropScalar
	kernelAVX2                       // affineLeakyAVX, affineBackwardAVX: 4 lanes to a YMM vector
	kernelAVX512                     // affineLeakyAVX512, affineBackwardAVX512: 8 lanes to a ZMM vector
)

func (k kernelKind) String() string {
	return [...]string{"portable", "avx2", "avx512"}[k]
}

// asmMinOut is the narrowest layer an assembly forward kernel runs. A
// single-output layer — every readout's last — runs on the portable
// kernel: its transposed weights are its row-major weights, the YMM
// kernel spends a scalar tail and the ZMM kernel a masked vector and a
// block set-up on its one output, and the portable kernel takes its rows
// four at a time (affineRowsSingle), four independent sums where the
// assembly kernels run two. In BenchmarkAffineKernels, minimum of six
// runs, 48→1 ran 1.49 against 1.74 ns/MAC on YMM at one row, 1.10
// against 1.07 at two, and 0.55 against 0.77 and 0.52 against 0.69 at 31
// and 32 rows; the ZMM kernel was slower than both at every count. From
// two outputs up the ZMM kernel was as fast as or faster than the YMM
// kernel at every width measured.
const asmMinOut = 2

// asmKernel picks the forward kernel of a layer of out outputs when the
// assembly kernels are on: the portable kernel below asmMinOut outputs,
// otherwise the ZMM kernel where the CPU has AVX-512 and the YMM kernel
// where it does not. The choice is made from the CPU at package init and
// the layer's width, never from a setting.
func asmKernel(out int) kernelKind {
	switch {
	case out < asmMinOut:
		return kernelPortable
	case useAVX512:
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
	return asmKernel(asmMinOut).String()
}

// affineRowsStrided computes, for each row r in [0, rows):
//
//	x_r = x[xOff+r*xStride : +in]
//	y_r = dst[dstOff+r*dstStride : +out]
//	y_r[o] = b[o] + Σ_i wt[i*out+o]·x_r[i]   (then LeakyReLU when act)
//
// wt is column-major in×out, the layout of StackedLinear.W. Each row's
// outputs start at their biases and take the inputs four at a time,
//
//	y_r[o] = y_r[o] + wt_i[o]·x_i + wt_i+1[o]·x_i+1 + wt_i+2[o]·x_i+2 + wt_i+3[o]·x_i+3
//
// then one at a time: every output still sums bias first, then inputs in
// index order, the order of Linear.affineInto, and the activation is
// leakyReLUInPlace. The loop over the outputs carries no dependency from
// one output to the next, so the outputs' sums run side by side, and it
// streams four unit-stride weight rows and the row's outputs.
func affineRowsStrided(dst []float64, dstOff, dstStride int, x []float64, xOff, xStride, rows int, wt, b []float64, in, out int, alpha float64, act bool) {
	if out == 1 {
		affineRowsSingle(dst, dstOff, dstStride, x, xOff, xStride, rows, wt, b, in, alpha, act)
		return
	}
	wt, b = wt[:in*out], b[:out]
	for r := 0; r < rows; r++ {
		xr := x[xOff+r*xStride:][:in]
		yr := dst[dstOff+r*dstStride:][:out]
		copy(yr, b)
		i := 0
		for ; i+4 <= in; i += 4 {
			x0, x1, x2, x3 := xr[i], xr[i+1], xr[i+2], xr[i+3]
			w0, w1 := wt[i*out:][:len(yr)], wt[(i+1)*out:][:len(yr)]
			w2, w3 := wt[(i+2)*out:][:len(yr)], wt[(i+3)*out:][:len(yr)]
			for o := range yr {
				yr[o] = yr[o] + w0[o]*x0 + w1[o]*x1 + w2[o]*x2 + w3[o]*x3
			}
		}
		for ; i < in; i++ {
			xi, wi := xr[i], wt[i*out:][:len(yr)]
			for o := range yr {
				yr[o] += wi[o] * xi
			}
		}
		if act {
			leakyReLUInPlace(yr, alpha)
		}
	}
}

// affineRowsSingle is affineRowsStrided for a single-output layer: with
// one output there is one sum per row, a dependency chain as long as the
// row, so the rows go four at a time — four chains over one pass of the
// weights — then two, then one. Each row still sums bias first, then
// inputs in index order. The sums run in small leaf functions, whose
// loop counters stay in registers.
func affineRowsSingle(dst []float64, dstOff, dstStride int, x []float64, xOff, xStride, rows int, w, b []float64, in int, alpha float64, act bool) {
	w, bias := w[:in], b[0]
	row := func(r int) []float64 { return x[xOff+r*xStride:] }
	out := func(r int, s float64) {
		if act && s < 0 {
			s = alpha * s
		}
		dst[dstOff+r*dstStride] = s
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		s0, s1, s2, s3 := dot4(bias, w, row(r), row(r+1), row(r+2), row(r+3))
		out(r, s0)
		out(r+1, s1)
		out(r+2, s2)
		out(r+3, s3)
	}
	if r+2 <= rows {
		s0, s1 := dot2(bias, w, row(r), row(r+1))
		out(r, s0)
		out(r+1, s1)
		r += 2
	}
	if r < rows {
		out(r, dot1(bias, w, row(r)))
	}
}

// dot1 returns b + Σ_i w[i]·x[i], summed in index order; dot2 and dot4
// are two and four such sums over the same w in one pass.
func dot1(b float64, w, x []float64) float64 {
	x = x[:len(w)]
	for i, wi := range w {
		b += wi * x[i]
	}
	return b
}

func dot2(b float64, w, x0, x1 []float64) (s0, s1 float64) {
	x0, x1 = x0[:len(w)], x1[:len(w)]
	s0, s1 = b, b
	for i, wi := range w {
		s0 += wi * x0[i]
		s1 += wi * x1[i]
	}
	return s0, s1
}

func dot4(b float64, w, x0, x1, x2, x3 []float64) (s0, s1, s2, s3 float64) {
	x0, x1, x2, x3 = x0[:len(w)], x1[:len(w)], x2[:len(w)], x3[:len(w)]
	s0, s1, s2, s3 = b, b, b, b
	for i, wi := range w {
		s0 += wi * x0[i]
		s1 += wi * x1[i]
		s2 += wi * x2[i]
		s3 += wi * x3[i]
	}
	return s0, s1, s2, s3
}

// affineRowsAsm is affineRowsStrided on the assembly kernel k
// (kernelAVX2 or kernelAVX512), over the same weight layout: one call
// covers the whole row batch, LeakyReLU included — the kernel scales
// negative accumulators by its slope before the store (the same
// compare-and-scale per element as the portable kernel, so the bits
// match), and slope 1 is the linear layer.
func affineRowsAsm(k kernelKind, dst []float64, dstOff, dstStride int, x []float64, xOff, xStride, rows int, wt, b []float64, in, out int, alpha float64, act bool) {
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
// updated in place and must be reloaded (load) or rebuilt. The kernel is
// picked at stack time too (asmKernel): the ZMM kernel on AVX-512 CPUs
// and the YMM kernel on AVX-only CPUs for layers of more than one
// output, the portable Go kernel for single-output layers and everywhere
// else. All three read one weight layout and give the same bits. A
// Linear's training mirror is a stack of one whose bias is the layer's
// own.
type StackedLinear struct {
	K, In, Out int
	// W holds K member blocks, each column-major In×Out: member m's
	// weight from input i to output o is W[m·In·Out + i·Out + o], so the
	// weights of all outputs for input i are adjacent — the unit-stride
	// row every kernel streams.
	W      []float64
	B      []float64 // K blocks of Out
	kernel kernelKind
}

// newStack returns a stack of k in→out members on the weight storage w
// (at least k·in·out elements, contents unspecified) with bias b (k
// blocks of out) and the kernel this build and CPU run on that width.
func newStack(k, in, out int, w, b []float64) StackedLinear {
	s := StackedLinear{K: k, In: in, Out: out, W: w[:k*in*out], B: b}
	if useAffineAsm {
		s.kernel = asmKernel(out)
	}
	return s
}

// StackLinears copies k same-shape layers into one stacked layer.
func StackLinears(ls []*Linear) (*StackedLinear, error) {
	if len(ls) == 0 {
		return nil, fmt.Errorf("nn: stacking zero layers")
	}
	in, out := ls[0].In, ls[0].Out
	s := newStack(len(ls), in, out, make([]float64, len(ls)*in*out), make([]float64, len(ls)*out))
	for m, l := range ls {
		if l.In != in || l.Out != out {
			return nil, fmt.Errorf("nn: layer %d is %dx%d, want %dx%d", m, l.Out, l.In, out, in)
		}
		copy(s.B[m*out:(m+1)*out], l.B[:out])
		s.load(m, l)
	}
	return &s, nil
}

// load copies l's row-major weights, transposed, into member block m.
// It writes the block in order, four of its rows at a time: for each
// output o it reads the four adjacent weights W[o, i..i+3] and appends
// one to each of the four rows, so every write is sequential, where
// walking W in order would scatter each write a row apart.
func (s *StackedLinear) load(m int, l *Linear) {
	in, out, w := s.In, s.Out, l.W[:s.Out*s.In]
	wt := s.W[m*in*out : (m+1)*in*out]
	i := 0
	for ; i+4 <= in; i += 4 {
		r0, r1 := wt[i*out:][:out], wt[(i+1)*out:][:out]
		r2, r3 := wt[(i+2)*out:][:out], wt[(i+3)*out:][:out]
		for o := range r0 {
			c := w[o*in+i:][:4]
			r0[o], r1[o], r2[o], r3[o] = c[0], c[1], c[2], c[3]
		}
	}
	for ; i < in; i++ {
		row := wt[i*out:][:out]
		for o := range row {
			row[o] = w[o*in+i]
		}
	}
}

// rows advances a row batch through every member: member m reads its In
// inputs of row r at x[m*xBlock+r*xStride:] and writes its Out outputs at
// column offset m·Out of the rows×(K·Out) dst.
func (s *StackedLinear) rows(dst, x []float64, xBlock, xStride, rows int, alpha float64, act bool) {
	for m := 0; m < s.K; m++ {
		w, b := s.W[m*s.Out*s.In:(m+1)*s.Out*s.In], s.B[m*s.Out:(m+1)*s.Out]
		if s.kernel != kernelPortable {
			affineRowsAsm(s.kernel, dst, m*s.Out, s.K*s.Out, x, m*xBlock, xStride, rows, w, b, s.In, s.Out, alpha, act)
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
