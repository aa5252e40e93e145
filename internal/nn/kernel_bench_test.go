package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkAffineKernels times the AVX kernel against the portable one on
// the layers the models have — the update MLP at the bench fixture's
// hidden 24 (48→64→24) and at the default hidden 48 (96→64→48), an
// encoder's second layer and a readout's last — at the row counts a single
// predict (1, 2) and a full search tile (31, 32: odd and even) produce.
// Hidden layers run with the activation, final layers linear, as in
// StackedMLP.forward; ns/MAC makes the shapes comparable.
func BenchmarkAffineKernels(b *testing.B) {
	shapes := []struct {
		in, out int
		act     bool
	}{
		{48, 64, true}, {64, 24, false}, {96, 64, true}, {64, 48, false}, {24, 48, true}, {48, 1, false},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(7))
		layers := []*Linear{NewLinear(rng, sh.in, sh.out)}
		kind := "linear"
		if sh.act {
			kind = "act"
		}
		for _, rows := range []int{1, 2, 31, 32} {
			x := randRows(rng, rows, sh.in)
			y := make([]float64, rows*sh.out)
			run := func(b *testing.B) {
				s, err := StackLinears(layers)
				if err != nil {
					b.Fatal(err)
				}
				for b.Loop() {
					s.BlockRows(y, x, rows, 0.01, sh.act)
				}
				macs := float64(b.N) * float64(rows*sh.in*sh.out)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/macs, "ns/MAC")
			}
			name := fmt.Sprintf("%dx%d-%s/rows=%d", sh.in, sh.out, kind, rows)
			b.Run(name+"/avx", func(b *testing.B) {
				if !useAffineAsm {
					b.Skip("no AVX kernels on this machine")
				}
				run(b)
			})
			b.Run(name+"/portable", func(b *testing.B) {
				defer func(asm bool) { useAffineAsm = asm }(useAffineAsm)
				useAffineAsm = false
				run(b)
			})
		}
	}
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
