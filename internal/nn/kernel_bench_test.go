package nn

import (
	"math/rand"
	"testing"
)

// BenchmarkAffineKernels compares the portable blocked kernel against
// the AVX transposed kernel on the GNN's typical update-layer shape.
func BenchmarkAffineKernels(b *testing.B) {
	const in, out, rows = 48, 24, 3
	rng := rand.New(rand.NewSource(7))
	layers := []*Linear{NewLinear(rng, in, out)}
	x := randRows(rng, rows, in)
	y := make([]float64, rows*out)
	run := func(b *testing.B) {
		s, err := StackLinears[float64](layers)
		if err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			s.BlockRows(y, x, rows, 0.01, true)
		}
	}
	b.Run("avx", func(b *testing.B) {
		if !useAffineAsm {
			b.Skip("no AVX kernels on this machine")
		}
		run(b)
	})
	b.Run("portable", func(b *testing.B) {
		defer func(asm bool) { useAffineAsm = asm }(useAffineAsm)
		useAffineAsm = false
		run(b)
	})
}
