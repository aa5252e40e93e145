//go:build amd64

package nn

// haveAffineAsm reports that this build includes the hand-written AVX
// kernels; useAffineAsm additionally requires CPU+OS support at runtime.
const haveAffineAsm = true

// hasAVX is true when the CPU supports AVX and the OS preserves YMM
// state across context switches (OSXSAVE + XCR0).
var hasAVX = cpuHasAVX()

// useAffineAsm selects the assembly kernels: the fused transposed-affine
// kernel for layers stacked from here on (StackLinears reads it once per
// layer) and for training mirrors built from here on, and the backward,
// reduce and Adam kernels on every call. A variable (not const) so tests
// can run the portable path and compare.
var useAffineAsm = hasAVX

// useAVX512 selects affineLeakyAVX512 over affineLeakyAVX as the forward
// kernel of layers at least zmmMinOut wide (see asmKernel). It is true
// when the CPU also supports AVX-512F and the OS preserves the opmask
// and full ZMM state (CPUID leaf 7 + XCR0); like useAffineAsm it is set
// at init and is a variable only so that tests can run each kernel the
// CPU has.
var useAVX512 = hasAVX && cpuHasAVX512()

// cpuHasAVX and cpuHasAVX512 are implemented in affine_amd64.s (CPUID +
// XGETBV).
func cpuHasAVX() bool
func cpuHasAVX512() bool

// affineLeakyAVX computes, for o in [0, out),
//
//	v = b[o] + Σ_i wt[i*out+o]·x[i];  y[o] = v, or slope·v when v < 0
//
// over the column-major (transposed) weight matrix wt, for rows >= 1
// rows: row r reads x[r*xStride:] and writes y[r*yStride:]. Outputs ride
// in YMM lanes while i advances sequentially, so every output accumulates
// bias-first-then-inputs-in-index-order — bit-identical to
// Linear.affineInto (VADDPD/VMULPD lanes are IEEE-identical to the scalar
// ops) — and LeakyReLU is a compare-and-blend on the accumulators before
// the store, the same compare-and-scale as leakyReLUInPlace. slope 1 asks
// for no activation: 1·v is v bit for bit. Rows are taken two at a time,
// sharing each weight load, and the row loop lives here so that a stacked
// layer costs one call per member and row batch, not per row. Every x row
// must hold in values, wt in·out, every y row and b out, and in and out
// must be at least 1; y must not overlap x.
//
//go:noescape
func affineLeakyAVX(y, x, wt, b *float64, in, out, rows, yStride, xStride int, slope float64)

// affineLeakyAVX512 is affineLeakyAVX eight outputs to a ZMM vector: the
// same contract, arguments and weight layout, and the same bits — each
// lane runs the scalar multiply and add of its output in the same order,
// with no fused multiply-add. Outputs go in blocks of up to 32 (four
// vectors), and a block that ends inside a vector masks that vector's
// loads and store instead of finishing in a scalar loop. It needs
// AVX-512F (useAVX512).
//
//go:noescape
func affineLeakyAVX512(y, x, wt, b *float64, in, out, rows, yStride, xStride int, slope float64)

// affineBackwardAVX is the whole-layer backward of y = W·x + b (W
// row-major out×in). For o in [0, out), in order:
//
//	gf := dy[o]; if act[o] < 0 { gf *= alpha }; if gf == 0 { skip o }
//	gw[o*in+i] += gf·x[i];  xg[i] += gf·w[o*in+i]  (all i);  gb[o] += gf
//
// Lanes run over the input index i, so every element of gw and xg sees
// the same multiply and add, in the same o order, as the Go loop in
// Linear.backpropScalar: the results are bit-identical. act is the fused
// op's post-activation output; the unfused op passes dy itself with
// alpha 1. gf is scratch for the out effective gradients. in and out must
// be at least 1, and none of gw, gb, xg and gf may overlap any other
// buffer.
//
//go:noescape
func affineBackwardAVX(gw, gb, xg, w, x, dy, act, gf *float64, alpha float64, in, out int)

// addClearAVX computes dst[i] += src[i]; src[i] = 0 for i in [0, n).
//
//go:noescape
func addClearAVX(dst, src *float64, n int)

// adamStepAVX applies Adam.Step's element update to n elements: the
// arithmetic, operation for operation, of the Go loop there (VDIVPD and
// VSQRTPD round like their scalar forms). omb1 and omb2 are 1-beta1 and
// 1-beta2.
//
//go:noescape
func adamStepAVX(p, grad, m, v *float64, n int, beta1, omb1, beta2, omb2, c1, c2, lr, eps, scale float64)
