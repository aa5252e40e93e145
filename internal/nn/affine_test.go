package nn

import (
	"math/rand"
	"testing"
)

// TestAffineAsmMatchesPortable pins the AVX kernels to the portable Go
// kernels bit for bit, across shapes that exercise every output block
// width (16/8/4 doubles, 32/16/8 floats) and the scalar tails. Lane-wise
// VADDPD/VMULPD are IEEE-identical to the scalar ops and both kernels
// accumulate each output bias-first-then-inputs-in-index-order, so even
// the float32 paths must agree exactly.
func TestAffineAsmMatchesPortable(t *testing.T) {
	if !useAffineAsm {
		t.Skip("no AVX kernels on this machine")
	}
	defer func() { useAffineAsm = true }()
	rng := rand.New(rand.NewSource(6))
	for _, k := range []int{1, 3} {
		for _, in := range []int{1, 2, 7, 24, 48} {
			for _, out := range []int{1, 3, 4, 5, 8, 17, 24, 37} {
				layers := make([]*Linear, k)
				for m := range layers {
					layers[m] = NewLinear(rng, in, out)
				}
				const rows = 3
				x := randRows(rng, rows, k*in)
				x32 := make([]float32, len(x))
				for i, v := range x {
					x32[i] = float32(v)
				}
				asm := make([]float64, rows*k*out)
				ref := make([]float64, rows*k*out)
				asm32 := make([]float32, rows*k*out)
				ref32 := make([]float32, rows*k*out)

				// The kernel is picked when a layer is stacked.
				useAffineAsm = true
				blockRows(t, layers, asm, x, rows)
				blockRows(t, layers, asm32, x32, rows)
				useAffineAsm = false
				blockRows(t, layers, ref, x, rows)
				blockRows(t, layers, ref32, x32, rows)
				useAffineAsm = true

				for i := range ref {
					if asm[i] != ref[i] {
						t.Fatalf("k=%d in=%d out=%d elem %d: asm %v portable %v", k, in, out, i, asm[i], ref[i])
					}
					if asm32[i] != ref32[i] {
						t.Fatalf("k=%d in=%d out=%d elem %d: asm32 %v portable32 %v", k, in, out, i, asm32[i], ref32[i])
					}
				}
			}
		}
	}
}

// blockRows stacks the layers at dst's precision, on whichever kernel
// useAffineAsm selects right now, and runs one fused BlockRows pass.
func blockRows[T Float](t *testing.T, layers []*Linear, dst, x []T, rows int) {
	t.Helper()
	s, err := StackLinears[T](layers)
	if err != nil {
		t.Fatal(err)
	}
	if (s.kern != nil) != useAffineAsm {
		t.Fatalf("stacked with kern set = %v, want %v", s.kern != nil, useAffineAsm)
	}
	s.BlockRows(dst, x, rows, 0.01, true)
}
