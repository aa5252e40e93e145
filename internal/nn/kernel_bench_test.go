package nn

import (
	"fmt"
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

// BenchmarkBackwardKernels compares the Go layer backward against the AVX
// kernel on the update MLP's two layers at the experiments' widths.
func BenchmarkBackwardKernels(b *testing.B) {
	for _, shape := range [][2]int{{96, 64}, {64, 48}} {
		in, out := shape[0], shape[1]
		rng := rand.New(rand.NewSource(7))
		l := NewLinear(rng, in, out)
		x := &Node{Data: randRows(rng, 1, in), Grad: make([]float64, in)}
		fused := &Node{Data: randRows(rng, 1, out), c: 0.01}
		dy := randRows(rng, 1, out)
		tape := NewTape()
		run := func(b *testing.B) {
			for b.Loop() {
				l.backprop(tape, dy, x, fused)
			}
		}
		b.Run(fmt.Sprintf("%dx%d/avx", in, out), func(b *testing.B) {
			if !useAffineAsm {
				b.Skip("no AVX kernels on this machine")
			}
			run(b)
		})
		b.Run(fmt.Sprintf("%dx%d/portable", in, out), func(b *testing.B) {
			defer func(asm bool) { useAffineAsm = asm }(useAffineAsm)
			useAffineAsm = false
			run(b)
		})
	}
}
