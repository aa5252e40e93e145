//go:build amd64

package nn

// haveAffineAsm reports that this build includes the hand-written AVX
// kernels; useAffineAsm additionally requires CPU+OS support at runtime.
const haveAffineAsm = true

// hasAVX is true when the CPU supports AVX and the OS preserves YMM
// state across context switches (OSXSAVE + XCR0).
var hasAVX = cpuHasAVX()

// useAffineAsm selects the assembly transposed-affine kernels for layers
// stacked from here on (transKernel reads it once per layer). A variable
// (not const) so tests can stack on the portable path and compare.
var useAffineAsm = hasAVX

// cpuHasAVX is implemented in affine_amd64.s (CPUID + XGETBV).
func cpuHasAVX() bool

// affineTransAVX computes y[o] = b[o] + Σ_i wt[i*out+o]·x[i] for
// o in [0, out) over the column-major (transposed) weight matrix wt,
// for rows >= 1 rows: row r reads x[r*xStride:] and writes y[r*yStride:].
// Outputs ride in YMM lanes while i advances sequentially, so every
// output accumulates bias-first-then-inputs-in-index-order — bit-identical
// to Linear.affineInto (VADDPD/VMULPD lanes are IEEE-identical to the
// scalar ops). Every x row must hold in values, wt in·out, every y row
// and b out. The row loop lives here because the generic callers reach
// the routine through a func value: that costs one indirect call and
// ABI wrapper per row batch, not per row.
//
//go:noescape
func affineTransAVX(y, x, wt, b *float64, in, out, rows, yStride, xStride int)

// affineTransAVX32 is the float32 twin (8 lanes per YMM register).
//
//go:noescape
func affineTransAVX32(y, x, wt, b *float32, in, out, rows, yStride, xStride int)
