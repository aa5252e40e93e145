package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestAffineAsmMatchesPortable pins the fused AVX kernel to the portable
// Go kernel bit for bit on generated shapes: every output block width
// (16/8/4 doubles) and scalar tail, odd and even row
// counts (the row-pair path and the single odd row), activation on and
// off, one and three members, row strides wider than the rows with
// canaries in the gaps, and inputs seeded with signed zeros, denormals,
// infinities and NaNs, compared by bit pattern. Lane-wise VADDPD/VMULPD
// are IEEE-identical to the scalar ops and both kernels accumulate each
// output bias-first-then-inputs-in-index-order, so the two must agree
// exactly. The tape's forward reaches the same kernel through
// Linear.affineTape and is held to affineInto + leakyReLUInPlace.
func TestAffineAsmMatchesPortable(t *testing.T) {
	needAsm(t)
	rng := rand.New(rand.NewSource(6))
	for _, k := range []int{1, 3} {
		for _, in := range []int{1, 2, 7, 24, 48, 64, 96} {
			for _, out := range []int{1, 3, 4, 5, 8, 15, 16, 17, 24, 32, 37, 48, 64, 65} {
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
						checkAffineKernels(t, rng, asm, ref, rows, act)
					}
				}
				checkAffineTape(t, rng, layers[0])
			}
		}
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

// stackOn stacks the layers for the assembly kernel or the portable one:
// the kernel is picked when a layer is stacked.
func stackOn(t *testing.T, layers []*Linear, asm bool) *StackedLinear {
	t.Helper()
	defer func(was bool) { useAffineAsm = was }(useAffineAsm)
	useAffineAsm = asm
	s, err := StackLinears(layers)
	if err != nil {
		t.Fatal(err)
	}
	if s.asm != asm {
		t.Fatalf("stacked for the assembly kernel = %v, want %v", s.asm, asm)
	}
	return s
}

// checkAffineKernels runs one member-block row batch through both kernels
// — sa stacked for the assembly, sp for the portable one — with x and dst
// rows spaced wider than they are long. The gaps of x hold
// NaNs, which would poison any output computed from a stray read; the
// gaps of dst hold a canary that must survive.
func checkAffineKernels(t *testing.T, rng *rand.Rand, sa, sp *StackedLinear, rows int, act bool) {
	t.Helper()
	k, in, out := sa.K, sa.In, sa.Out
	const xOff, dstOff, canary = 2, 1, -12345.5
	xStride, dstStride := k*in+3, k*out+5

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
		affineRowsTrans(asm, dstOff+m*out, dstStride, x, xOff+m*in, xStride, rows,
			sa.W[w:w+out*in], sa.B[b:b+out], in, out, 0.01, act)
		affineRowsStrided(ref, dstOff+m*out, dstStride, x, xOff+m*in, xStride, rows,
			sp.W[w:w+out*in], sp.B[b:b+out], in, out, 0.01, act)
	}
	for i := range ref {
		if !equalBits(asm[i], ref[i]) {
			t.Fatalf("k=%d in=%d out=%d rows=%d act=%v elem %d: asm %v (%#x) portable %v (%#x)",
				k, in, out, rows, act, i, asm[i], math.Float64bits(asm[i]), ref[i], math.Float64bits(ref[i]))
		}
		if col := (i - dstOff + dstStride) % dstStride; (i < dstOff || col >= k*out) && asm[i] != canary {
			t.Fatalf("k=%d in=%d out=%d rows=%d act=%v: canary at %d overwritten with %v",
				k, in, out, rows, act, i, asm[i])
		}
	}
}

// checkAffineTape calls the kernel the way the tape forward does —
// one row over the training mirror, slope 1 for the plain affine op — and
// compares with the Go loops it replaces.
func checkAffineTape(t *testing.T, rng *rand.Rand, l *Linear) {
	t.Helper()
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
					t.Fatalf("affineTape in=%d out=%d slope=%v output %d: kernel %v (%#x) Go %v (%#x)",
						l.In, l.Out, slope, o, got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
				}
			}
		}
	}
}
