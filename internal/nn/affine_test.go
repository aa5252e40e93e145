package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestAffineAsmMatchesPortable pins each fused forward kernel the CPU
// has — the YMM kernel and, on AVX-512 CPUs, the ZMM one — to the
// portable Go kernel bit for bit on hand-picked shapes: output widths
// that reach every YMM block (16/8/4 doubles) and scalar tail and every
// ZMM block (1-4 vectors) and mask width (1-9, 23-25, 31-33, 63-65), odd
// and even row counts (the row-pair path and the single odd row),
// activation on and off, one and three members, row strides wider than
// the rows with canaries in the gaps, and inputs seeded with signed
// zeros, denormals, infinities and NaNs, compared by bit pattern.
// Lane-wise VADDPD/VMULPD are IEEE-identical to the scalar ops and every
// kernel accumulates each output bias-first-then-inputs-in-index-order,
// so they must agree exactly. The tape's forward reaches the same
// kernels through Linear.affineTape and is held to affineInto +
// leakyReLUInPlace. TestAffineKernelsGeneratedShapes does the same on
// generated shapes.
func TestAffineAsmMatchesPortable(t *testing.T) {
	forEachAsmKernel(t, func(t *testing.T, kernel forwardKernel) {
		rng := rand.New(rand.NewSource(6))
		for _, k := range []int{1, 3} {
			for _, in := range []int{1, 2, 7, 24, 48, 64, 96} {
				for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 37, 48, 63, 64, 65} {
					layers := make([]*Linear, k)
					for m := range layers {
						layers[m] = NewLinear(rng, in, out)
					}
					// An output that sums signed zeros only: -0 and +0 are
					// not negative and must come through unscaled.
					clear(layers[0].W[:in])
					layers[0].B[0] = math.Copysign(0, -1)
					asm, ref := stackOn(t, layers, true), stackOn(t, layers, false)
					for _, rows := range []int{1, 2, 3, 4, 7, 32, 33} {
						for _, act := range []bool{true, false} {
							checkAffineKernels(t, rng, kernel, asm, ref, rows, act)
						}
					}
					checkAffineTape(t, rng, kernel, layers[0])
				}
			}
		}
	})
}

// TestAffineKernelsGeneratedShapes holds each assembly forward kernel to
// the portable one on 600 generated layers: in and out drawn from
// [1, 130], one or three members, 1-40 rows, activation on or off, and
// the row gaps, offsets and special values checkAffineKernels draws.
func TestAffineKernelsGeneratedShapes(t *testing.T) {
	forEachAsmKernel(t, func(t *testing.T, kernel forwardKernel) {
		rng := rand.New(rand.NewSource(42))
		for range 600 {
			k := []int{1, 3}[rng.Intn(2)]
			in, out := 1+rng.Intn(130), 1+rng.Intn(130)
			layers := make([]*Linear, k)
			for m := range layers {
				layers[m] = NewLinear(rng, in, out)
				specialRow(rng, layers[m].B, false)
			}
			asm, ref := stackOn(t, layers, true), stackOn(t, layers, false)
			checkAffineKernels(t, rng, kernel, asm, ref, 1+rng.Intn(40), rng.Intn(2) == 0)
		}
	})
}

// forEachAsmKernel runs check as a subtest per assembly forward kernel,
// named after it, and skips with a message the ZMM kernel on a CPU
// without AVX-512. go test -v lists which kernels were checked.
func forEachAsmKernel(t *testing.T, check func(t *testing.T, kernel forwardKernel)) {
	needAsm(t)
	has512 := useAVX512
	for _, kernel := range []forwardKernel{kernelAVX2, kernelAVX512} {
		t.Run(kernel.String(), func(t *testing.T) {
			if kernel == kernelAVX512 && !has512 {
				t.Skip("no AVX-512F (or no OS support for ZMM state) on this CPU: the ZMM kernel is not checked here")
			}
			t.Logf("checking the %s forward kernel against the portable kernel", kernel)
			check(t, kernel)
		})
	}
}

// specialRow fills x with normal deviates and overwrites about one value
// in six with a signed zero or a denormal — and, when nonFinite is set,
// with an infinity or a NaN as well.
func specialRow(rng *rand.Rand, x []float64, nonFinite bool) {
	const den = math.SmallestNonzeroFloat64
	specials := []float64{0, math.Copysign(0, -1), 3 * den, -5 * den}
	if nonFinite {
		specials = append(specials, math.Inf(1), math.Inf(-1), math.NaN())
	}
	for i := range x {
		x[i] = rng.NormFloat64()
		if rng.Intn(6) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// equalBits compares by bit pattern — the sign of a zero or an infinity
// counts — except that a NaN matches any NaN: when two NaNs meet in an
// add, x86 keeps the first operand's payload, and which operand comes
// first in the Go loops is the compiler's choice (the -race build of the
// portable kernel picks differently from the plain one).
func equalBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// stackOn stacks the layers for the assembly kernels or the portable one:
// the kernel, and with it the weight layout, is picked when a layer is
// stacked.
func stackOn(t *testing.T, layers []*Linear, asm bool) *StackedLinear {
	t.Helper()
	defer func(was bool) { useAffineAsm = was }(useAffineAsm)
	useAffineAsm = asm
	s, err := StackLinears(layers)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.kernel != kernelPortable; got != asm {
		t.Fatalf("stacked for the %s kernel, want assembly = %v", s.kernel, asm)
	}
	return s
}

// checkAffineKernels runs one member-block row batch through the assembly
// kernel named by kernel over sa, stacked for the assembly kernels, and
// through the portable kernel over sp, with x and dst placed at random
// offsets and their rows spaced 1-8 elements wider than they are long.
// The gaps of x hold NaNs, which would poison any output computed from a
// stray read; the gaps of dst hold a canary that must survive.
func checkAffineKernels(t *testing.T, rng *rand.Rand, kernel forwardKernel, sa, sp *StackedLinear, rows int, act bool) {
	t.Helper()
	k, in, out := sa.K, sa.In, sa.Out
	const canary = -12345.5
	xOff, dstOff := rng.Intn(4), rng.Intn(4)
	xStride, dstStride := k*in+1+rng.Intn(8), k*out+1+rng.Intn(8)

	x := make([]float64, xOff+rows*xStride)
	for i := range x {
		x[i] = math.NaN()
	}
	for r := 0; r < rows; r++ {
		// Every third row also carries infinities and NaNs; the others
		// stay finite so the comparison is of numbers, not of NaNs.
		specialRow(rng, x[xOff+r*xStride:xOff+r*xStride+k*in], r%3 == 2)
	}
	asm := make([]float64, dstOff+rows*dstStride)
	ref := make([]float64, len(asm))
	for i := range asm {
		asm[i], ref[i] = canary, canary
	}

	for m := 0; m < k; m++ {
		w, b := m*out*in, m*out
		affineRowsTrans(kernel, asm, dstOff+m*out, dstStride, x, xOff+m*in, xStride, rows,
			sa.W[w:w+out*in], sa.B[b:b+out], in, out, 0.01, act)
		affineRowsStrided(ref, dstOff+m*out, dstStride, x, xOff+m*in, xStride, rows,
			sp.W[w:w+out*in], sp.B[b:b+out], in, out, 0.01, act)
	}
	for i := range ref {
		if !equalBits(asm[i], ref[i]) {
			t.Fatalf("%s k=%d in=%d out=%d rows=%d act=%v elem %d: asm %v (%#x) portable %v (%#x)",
				kernel, k, in, out, rows, act, i, asm[i], math.Float64bits(asm[i]), ref[i], math.Float64bits(ref[i]))
		}
		if col := (i - dstOff + dstStride) % dstStride; (i < dstOff || col >= k*out) && asm[i] != canary {
			t.Fatalf("%s k=%d in=%d out=%d rows=%d act=%v: canary at %d overwritten with %v",
				kernel, k, in, out, rows, act, i, asm[i])
		}
	}
}

// checkAffineTape calls the kernel the way the tape forward does —
// one row over the training mirror, slope 1 for the plain affine op — and
// compares with the Go loops it replaces. kernel kernelAVX512 lets the
// tape pick the ZMM kernel, which it does for layers of at least
// zmmMinOut outputs; kernelAVX2 keeps it on the YMM kernel.
func checkAffineTape(t *testing.T, rng *rand.Rand, kernel forwardKernel, l *Linear) {
	t.Helper()
	defer func(was bool) { useAVX512 = was }(useAVX512)
	useAVX512 = kernel == kernelAVX512
	l.RefreshMirror()
	defer l.DropMirror()
	if l.wt == nil {
		t.Fatal("no training mirror with the assembly kernels on")
	}
	x := make([]float64, l.In)
	got, want := make([]float64, l.Out), make([]float64, l.Out)
	for _, nonFinite := range []bool{false, true} {
		specialRow(rng, x, nonFinite)
		for _, slope := range []float64{1, 0.01} {
			l.affineTape(got, x, slope)
			l.affineInto(want, x)
			leakyReLUInPlace(want, slope)
			for o := range want {
				if !equalBits(got[o], want[o]) {
					t.Fatalf("%s affineTape in=%d out=%d slope=%v output %d: kernel %v (%#x) Go %v (%#x)",
						asmKernel(l.Out), l.In, l.Out, slope, o, got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
				}
			}
		}
	}
}
