package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkAffineKernels times the forward kernels side by side — the
// ZMM kernel (/avx512), the YMM kernel (/avx2) and the portable Go kernel
// (/portable) — on the layers the models have: the update MLP at the
// bench fixture's hidden 24 (48→64→24) and at the default hidden 48
// (96→64→48), an encoder's second layer and a readout's last, at the row
// counts a single predict (1, 2) and a full search tile (31, 32: odd and
// even) produce. Hidden layers run with the activation, final layers
// linear, as in StackedMLP.forward; ns/MAC makes the shapes comparable.
// Each sub-benchmark runs its kernel on every shape, the narrow readout
// included, which StackLinears keeps on the portable kernel (asmMinOut),
// over one stack: all three kernels read its transposed weights. A
// kernel the CPU lacks is skipped.
func BenchmarkAffineKernels(b *testing.B) {
	shapes := []struct {
		in, out int
		act     bool
	}{
		{48, 64, true}, {64, 24, false}, {96, 64, true}, {64, 48, false}, {24, 48, true}, {48, 1, false},
	}
	has512 := useAVX512
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(7))
		s, err := StackLinears([]*Linear{NewLinear(rng, sh.in, sh.out)})
		if err != nil {
			b.Fatal(err)
		}
		kind := "linear"
		if sh.act {
			kind = "act"
		}
		for _, rows := range []int{1, 2, 31, 32} {
			x := randRows(rng, rows, sh.in)
			y := make([]float64, rows*sh.out)
			name := fmt.Sprintf("%dx%d-%s/rows=%d", sh.in, sh.out, kind, rows)
			for _, kernel := range []kernelKind{kernelAVX512, kernelAVX2, kernelPortable} {
				b.Run(name+"/"+kernel.String(), func(b *testing.B) {
					switch {
					case kernel == kernelAVX512 && !has512:
						b.Skip("no AVX-512 on this machine")
					case kernel != kernelPortable && !useAffineAsm:
						b.Skip("no AVX kernels on this machine")
					}
					s.kernel = kernel
					for b.Loop() {
						s.BlockRows(y, x, rows, 0.01, sh.act)
					}
					macs := float64(b.N) * float64(rows*sh.in*sh.out)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/macs, "ns/MAC")
				})
			}
		}
	}
}

// BenchmarkBackwardKernels times the layer backward side by side — the
// ZMM kernel (/avx512), the YMM kernel (/avx2) and backpropScalar
// (/portable) — on the layers of the bench fixture's models at hidden 24:
// the encoders' first layers (4, 7, 12, 18 and 26 features → 64), the
// update MLP's (48 → 64), the hidden-to-hidden 64 → 24, the readout's
// 24 → 48 and its last, 48 → 1. Hidden layers are the fused op, final
// layers plain, as the tape records them; ns/MAC makes the shapes
// comparable. Each sub-benchmark calls its kernel directly; the ZMM
// kernel is skipped below zmmBackwardMinIn inputs, which Linear.backprop
// keeps on the YMM kernel, and a kernel the CPU lacks is skipped. 48 → 1
// runs on both assembly kernels: it is what keeps single-output layers
// on the YMM kernel (backwardKernel).
func BenchmarkBackwardKernels(b *testing.B) {
	shapes := []struct {
		in, out int
		fused   bool
	}{
		{4, 64, true}, {7, 64, true}, {12, 64, true}, {18, 64, true}, {26, 64, true}, {48, 64, true},
		{64, 24, false}, {24, 48, true}, {48, 1, false},
	}
	has512 := useAVX512
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(7))
		l := NewLinear(rng, sh.in, sh.out)
		attachGrads(l)
		x := &Node{Data: randRows(rng, 1, sh.in), Grad: make([]float64, sh.in)}
		dy, act, alpha := randRows(rng, 1, sh.out), randRows(rng, 1, sh.out), leakySlope
		var fused *Node
		if sh.fused {
			fused = &Node{Data: act}
		} else {
			act, alpha = dy, 1
		}
		gf := make([]float64, sh.out)
		kind := "linear"
		if sh.fused {
			kind = "act"
		}
		for _, kernel := range []kernelKind{kernelAVX512, kernelAVX2, kernelPortable} {
			b.Run(fmt.Sprintf("%dx%d-%s/%s", sh.in, sh.out, kind, kernel), func(b *testing.B) {
				switch {
				case kernel == kernelAVX512 && !has512:
					b.Skip("no AVX-512 on this machine")
				case kernel == kernelAVX512 && sh.in < zmmBackwardMinIn:
					b.Skip("narrower than zmmBackwardMinIn: backprop runs the YMM kernel")
				case kernel != kernelPortable && !useAffineAsm:
					b.Skip("no AVX kernels on this machine")
				}
				for b.Loop() {
					if kernel == kernelPortable {
						l.backpropScalar(dy, x, fused)
					} else {
						callBackward(kernel, l.GW, l.GB, x.Grad, l.W, x.Data, dy, act, gf, alpha, sh.in, sh.out)
					}
				}
				macs := float64(b.N) * float64(sh.in*sh.out)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/macs, "ns/MAC")
			})
		}
	}
}

// BenchmarkOptimizerStep times one layer's Adam step, Linear.adamStep (W
// with its training mirror, then B), side by side on the fused assembly
// kernel (/fused, which also writes the mirror) and on the Go loop
// (/portable, no mirror, as on a build without the kernels), on the bench
// fixture's layer shapes at hidden 24, the same list as
// BenchmarkBackwardKernels. Each iteration first copies fresh gradients
// in, since the step clears them, so both sides include that copy; ns per
// element (weights plus biases) makes the shapes comparable.
func BenchmarkOptimizerStep(b *testing.B) {
	shapes := [][2]int{{4, 64}, {7, 64}, {12, 64}, {18, 64}, {26, 64}, {48, 64}, {64, 24}, {24, 48}, {48, 1}}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(7))
		l := NewLinear(rng, sh[0], sh[1])
		attachGrads(l)
		gw, gb := randRows(rng, 1, len(l.GW)), randRows(rng, 1, len(l.GB))
		n := len(l.W) + len(l.B)
		mw, vw, mb, vb := make([]float64, len(l.W)), make([]float64, len(l.W)), make([]float64, len(l.B)), make([]float64, len(l.B))
		h := adamHyper{c1: 0.5, c2: 0.5, lr: 1e-3, scale: 1}
		for _, asm := range []bool{true, false} {
			name := "portable"
			if asm {
				name = "fused"
			}
			b.Run(fmt.Sprintf("%dx%d/%s", sh[0], sh[1], name), func(b *testing.B) {
				if asm && !useAffineAsm {
					b.Skip("no AVX kernels on this machine")
				}
				defer func(was bool) { useAffineAsm = was }(useAffineAsm)
				useAffineAsm = asm
				if asm {
					attachMirror(l)
					defer l.DropMirror()
				}
				for b.Loop() {
					copy(l.GW, gw)
					copy(l.GB, gb)
					l.adamStep(mw, vw, mb, vb, &h)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(n)), "ns/elem")
			})
		}
	}
}
