package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The training kernels are pinned to the Go loops they replace the way
// TestAffineAsmMatchesPortable pins the inference kernels: generated
// inputs over shapes that reach every block width and tail, compared by
// math.Float64bits.

var kernelDims = []int{1, 3, 4, 5, 8, 15, 16, 17, 24, 48, 64, 65}

// needAsm skips on machines without the kernels and restores the switch
// when the test ends.
func needAsm(t *testing.T) {
	t.Helper()
	if !useAffineAsm {
		t.Skip("no AVX kernels on this machine")
	}
	t.Cleanup(func() { useAffineAsm = true })
}

// awkward fills xs with values in [-1, 1) and plants the cases a vector
// kernel can get wrong: exact zeros of both signs, denormals, and a
// sign pattern that changes inside a lane group.
func awkward(rng *rand.Rand, xs []float64) {
	for i := range xs {
		switch rng.Intn(8) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = math.Copysign(0, -1)
		case 2:
			xs[i] = math.Float64frombits(uint64(rng.Intn(1 << 20))) // denormal
		case 3:
			xs[i] = -math.Float64frombits(uint64(1 + rng.Intn(1<<20)))
		default:
			xs[i] = rng.Float64()*2 - 1
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBackwardAsmMatchesPortable holds each assembly backward kernel the
// CPU has — one subtest each, /avx2 and /avx512 — to backpropScalar on
// every pair of kernelDims, fused and unfused, called directly and
// through Linear.backprop with the kernels on and off. The ZMM kernel is
// called directly only on layers of at least zmmBackwardMinIn inputs, its
// contract; through backprop the narrower and the single-output ones
// take the YMM kernel.
func TestBackwardAsmMatchesPortable(t *testing.T) {
	forEachAsmKernel(t, "backward", func(t *testing.T, kernel kernelKind) {
		rng := rand.New(rand.NewSource(16))
		for _, in := range kernelDims {
			for _, out := range kernelDims {
				for _, fused := range []bool{false, true} {
					name := fmt.Sprintf("in=%d out=%d fused=%v", in, out, fused)
					proto := NewLinear(rng, in, out)
					attachGrads(proto)
					awkward(rng, proto.GW) // accumulators start non-zero
					awkward(rng, proto.GB)
					xData, xGrad := make([]float64, in), make([]float64, in)
					dy, act := make([]float64, out), make([]float64, out)
					awkward(rng, xData)
					awkward(rng, xGrad)
					awkward(rng, dy)
					awkward(rng, act)
					var outNode *Node
					if fused {
						outNode = &Node{Data: act}
					}

					// run applies one of the routes to a private copy of
					// the accumulators.
					run := func(route func(l *Linear, x *Node)) (gw, gb, xg []float64) {
						l := &Linear{In: in, Out: out, W: proto.W, B: proto.B,
							GW: append([]float64(nil), proto.GW...), GB: append([]float64(nil), proto.GB...)}
						x := &Node{Data: xData, Grad: append([]float64(nil), xGrad...)}
						route(l, x)
						return l.GW, l.GB, x.Grad
					}
					wantGW, wantGB, wantXG := run(func(l *Linear, x *Node) { l.backpropScalar(dy, x, outNode) })
					dy0 := append([]float64(nil), dy...)

					// The kernel called directly: no wrapper can quietly
					// route this one back to the Go loop.
					if kernel == kernelAVX2 || in >= zmmBackwardMinIn {
						gw, gb, xg := run(func(l *Linear, x *Node) {
							a, alpha := dy, 1.0
							if fused {
								a, alpha = act, leakySlope
							}
							callBackward(kernel, l.GW, l.GB, x.Grad, l.W, x.Data, dy, a, make([]float64, out), alpha, in, out)
						})
						sameBits(t, name+" kernel GW", gw, wantGW)
						sameBits(t, name+" kernel GB", gb, wantGB)
						sameBits(t, name+" kernel x.Grad", xg, wantXG)
						sameBits(t, name+" kernel dy (read-only)", dy, dy0)
					}

					// And through Linear.backprop on either setting.
					for _, asm := range []bool{true, false} {
						useAffineAsm = asm
						gw, gb, xg := run(func(l *Linear, x *Node) { l.backprop(NewTape(), dy, x, outNode) })
						useAffineAsm = true
						sameBits(t, fmt.Sprintf("%s asm=%v GW", name, asm), gw, wantGW)
						sameBits(t, fmt.Sprintf("%s asm=%v GB", name, asm), gb, wantGB)
						sameBits(t, fmt.Sprintf("%s asm=%v x.Grad", name, asm), xg, wantXG)
					}
				}
			}
		}
	})
}

// TestBackwardKernelsGeneratedShapes holds each assembly backward kernel,
// called directly, to backpropScalar on 600 generated layers per kernel:
// in and out drawn from [1, 130] (the ZMM kernel skips the draws below
// zmmBackwardMinIn inputs, outside its contract, and draws on), fused and
// unfused, accumulators that start non-zero, and gradients and
// activations seeded with NaNs, signed zeros and denormals. Every output
// buffer carries a canary past its end, and dy, act, W and x must come
// back unchanged.
func TestBackwardKernelsGeneratedShapes(t *testing.T) {
	forEachAsmKernel(t, "backward", func(t *testing.T, kernel kernelKind) {
		rng := rand.New(rand.NewSource(43))
		for checked := 0; checked < 600; {
			in, out := 1+rng.Intn(130), 1+rng.Intn(130)
			if kernel == kernelAVX512 && in < zmmBackwardMinIn {
				continue
			}
			checked++
			l := NewLinear(rng, in, out)
			attachGrads(l)
			specialRow(rng, l.GW, false)
			specialRow(rng, l.GB, false)
			x := &Node{Data: make([]float64, in), Grad: make([]float64, in)}
			specialRow(rng, x.Data, false)
			specialRow(rng, x.Grad, false)
			for _, fused := range []bool{false, true} {
				dy, act := make([]float64, out), make([]float64, out)
				gradientRow(rng, dy)
				gradientRow(rng, act)
				checkBackwardKernel(t, kernel, l, x, dy, act, fused)
			}
		}
	})
}

// gradientRow fills g with normal deviates and overwrites about one value
// in three with a NaN, a signed zero or a denormal of either sign: the
// zero test that skips a row, the NaN it must not skip, and values whose
// products underflow.
func gradientRow(rng *rand.Rand, g []float64) {
	const den = math.SmallestNonzeroFloat64
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), 7 * den, -3 * den, 0x1p-1060}
	for i := range g {
		g[i] = rng.NormFloat64()
		if rng.Intn(3) == 0 {
			g[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// checkBackwardKernel runs one backward of l through the assembly kernel
// named by kernel and through backpropScalar, each on a private copy of
// the accumulators, and compares them by bit pattern (a NaN matches any
// NaN, as in equalBits). The kernel's copies of GW, GB, x.Grad and its gf
// scratch are slices of longer arrays whose tails hold a canary.
func checkBackwardKernel(t *testing.T, kernel kernelKind, l *Linear, x *Node, dy, act []float64, fused bool) {
	t.Helper()
	in, out := l.In, l.Out
	const canary, pad = -12345.5, 9
	padded := func(src []float64, n int) []float64 {
		buf := make([]float64, n+pad)
		copy(buf, src)
		for i := n; i < len(buf); i++ {
			buf[i] = canary
		}
		return buf
	}
	gw, gb, xg, gf := padded(l.GW, in*out), padded(l.GB, out), padded(x.Grad, in), padded(nil, out)
	readOnly := snapshotAll([][]float64{l.W, x.Data, dy, act})

	ref := &Linear{In: in, Out: out, W: l.W, B: l.B,
		GW: append([]float64(nil), l.GW...), GB: append([]float64(nil), l.GB...)}
	rx := &Node{Data: x.Data, Grad: append([]float64(nil), x.Grad...)}
	a, alpha := dy, 1.0
	var outNode *Node
	if fused {
		a, alpha = act, leakySlope
		outNode = &Node{Data: act}
	}
	ref.backpropScalar(dy, rx, outNode)
	callBackward(kernel, gw, gb, xg, l.W, x.Data, dy, a, gf, alpha, in, out)

	name := fmt.Sprintf("%s in=%d out=%d fused=%v", kernel, in, out, fused)
	for _, c := range []struct {
		what      string
		got, want []float64
	}{
		{"GW", gw[:in*out], ref.GW}, {"GB", gb[:out], ref.GB}, {"x.Grad", xg[:in], rx.Grad},
		{"W (read-only)", l.W, readOnly[0]}, {"x (read-only)", x.Data, readOnly[1]},
		{"dy (read-only)", dy, readOnly[2]}, {"act (read-only)", act, readOnly[3]},
	} {
		for i := range c.want {
			if !equalBits(c.got[i], c.want[i]) {
				t.Fatalf("%s %s[%d] = %v (%#x), want %v (%#x)", name, c.what, i,
					c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
			}
		}
	}
	for _, c := range []struct {
		what string
		buf  []float64
	}{{"GW", gw[in*out:]}, {"GB", gb[out:]}, {"x.Grad", xg[in:]}, {"gf", gf[out:]}} {
		for i, v := range c.buf {
			if v != canary {
				t.Fatalf("%s: canary %d past the end of %s overwritten with %v", name, i, c.what, v)
			}
		}
	}
}

// callBackward calls the assembly backward kernel named by kernel on the
// given buffers, which must satisfy its contract.
func callBackward(kernel kernelKind, gw, gb, xg, w, x, dy, act, gf []float64, alpha float64, in, out int) {
	f := affineBackwardAVX
	if kernel == kernelAVX512 {
		f = affineBackwardAVX512
	}
	f(&gw[0], &gb[0], &xg[0], &w[0], &x[0], &dy[0], &act[0], &gf[0], alpha, in, out)
}

// TestBackwardNaNGradientIsNotSkipped: g == 0 is false for a NaN, so the
// row must be processed (a compare that treats unordered as equal would
// skip it), and a NaN activation is not negative.
func TestBackwardNaNGradientIsNotSkipped(t *testing.T) {
	needAsm(t)
	const in, out = 5, 3
	for _, asm := range []bool{true, false} {
		useAffineAsm = asm
		l := NewLinear(rand.New(rand.NewSource(1)), in, out)
		attachGrads(l)
		x := &Node{Data: []float64{1, 2, 3, 4, 5}, Grad: make([]float64, in)}
		dy := []float64{math.NaN(), 0, 2}
		fused := &Node{Data: []float64{-1, -1, math.NaN()}, c: 0.5}
		l.backprop(NewTape(), dy, x, fused)
		useAffineAsm = true
		if !math.IsNaN(l.GB[0]) || !math.IsNaN(l.GW[0]) || !math.IsNaN(x.Grad[4]) {
			t.Errorf("asm=%v: NaN gradient row skipped: GB %v GW %v x.Grad %v", asm, l.GB, l.GW[:in], x.Grad)
		}
		if l.GB[1] != 0 || l.GW[in] != 0 {
			t.Errorf("asm=%v: zero gradient row touched: GB %v GW %v", asm, l.GB, l.GW[in:2*in])
		}
		if l.GB[2] != 2 || l.GW[2*in+1] != 4 {
			t.Errorf("asm=%v: NaN activation scaled the gradient: GB %v GW %v", asm, l.GB, l.GW[2*in:])
		}
	}
}

func TestAddAndClearAsmMatchesPortable(t *testing.T) {
	needAsm(t)
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 67; n++ {
		dst, src := make([]float64, n), make([]float64, n)
		awkward(rng, dst)
		awkward(rng, src)
		want := make([]float64, n)
		for i := range want {
			want[i] = dst[i] + src[i]
		}
		for _, asm := range []bool{true, false} {
			d, s := append([]float64(nil), dst...), append([]float64(nil), src...)
			useAffineAsm = asm
			AddAndClear(d, s)
			useAffineAsm = true
			sameBits(t, fmt.Sprintf("n=%d asm=%v dst", n, asm), d, want)
			sameBits(t, fmt.Sprintf("n=%d asm=%v src", n, asm), s, make([]float64, n))
		}
	}
}

// TestAdamStepAsmMatchesPortable runs two optimizers over twin layer
// lists with training mirrors, one on the assembly kernel and one on the
// Go loop, for 50 steps at three clip settings: weights, biases, moments
// and mirrors must agree bit for bit after every step, and every
// gradient must read +0.
func TestAdamStepAsmMatchesPortable(t *testing.T) {
	needAsm(t)
	shapes := [][2]int{{1, 1}, {3, 4}, {4, 5}, {17, 3}, {65, 2}, {5, 128}}
	for _, clip := range []float64{0, 20, 1e-3} { // off, hit by the bursts only, hit every step
		rng := rand.New(rand.NewSource(18))
		var la, lb []*Linear
		for _, sh := range shapes {
			a := NewLinear(rng, sh[0], sh[1])
			awkward(rng, a.W)
			awkward(rng, a.B)
			b := &Linear{In: a.In, Out: a.Out,
				W: append([]float64(nil), a.W...), B: append([]float64(nil), a.B...)}
			for _, l := range []*Linear{a, b} {
				attachGrads(l)
				attachMirror(l)
			}
			la, lb = append(la, a), append(lb, b)
		}
		asmOpt, goOpt := newAdam(0.01, la), newAdam(0.01, lb)
		asmOpt.clipNorm, goOpt.clipNorm = clip, clip
		clipped := 0
		for step := 0; step < 50; step++ {
			var norm2 float64
			for k, a := range la {
				for _, g := range [][]float64{a.GW, a.GB} {
					awkward(rng, g)
					if step%10 == 9 { // a burst that trips the clip=20 case
						for i := range g {
							g[i] *= 40
						}
					}
					for _, x := range g {
						norm2 += x * x
					}
				}
				copy(lb[k].GW, a.GW)
				copy(lb[k].GB, a.GB)
			}
			if clip > 0 && math.Sqrt(norm2) > clip {
				clipped++
			}
			useAffineAsm = true
			asmOpt.Step()
			useAffineAsm = false
			goOpt.Step()
			useAffineAsm = true
			for k, a := range la {
				b := lb[k]
				what := fmt.Sprintf("clip=%v step %d layer %dx%d", clip, step, a.In, a.Out)
				sameBits(t, what+" W", a.W, b.W)
				sameBits(t, what+" B", a.B, b.B)
				sameBits(t, what+" mirror", a.mirror.W, b.mirror.W)
				for _, g := range [][]float64{a.GW, a.GB, b.GW, b.GB} {
					sameBits(t, what+" gradient after the step", g, make([]float64, len(g)))
				}
			}
			sameBits(t, fmt.Sprintf("clip=%v step %d moments", clip, step), asmOpt.moments, goOpt.moments)
		}
		switch {
		case clip == 0 && clipped != 0, clip == 20 && (clipped == 0 || clipped == 50), clip == 1e-3 && clipped != 50:
			t.Errorf("clip=%v: %d of 50 steps clipped; the case does not test what it names", clip, clipped)
		}
	}
}

// TestAdamFusedStepGeneratedLayers holds the fused step — adamRowsAVX
// over a layer's W with its mirror, then over B without one — to the Go
// loop followed by StackedLinear.load of the updated W, bit for bit (a
// NaN matches any NaN), on 600 generated layers: in and out drawn from
// [1, 130], the clip scale 1 on half of them and below 1 on the rest,
// and gradients and moments seeded with NaNs, infinities, signed zeros
// and denormals. Every buffer the kernel writes is a slice of a longer
// array whose tail holds canaries: the mirror's tail is a whole row of
// them, one past each of its columns. The kernel's mirror starts stale,
// so every element must be stored, and every gradient must read +0
// after the step.
func TestAdamFusedStepGeneratedLayers(t *testing.T) {
	needAsm(t)
	rng := rand.New(rand.NewSource(47))
	const canary, stale, pad = -12345.5, -999.75, 9
	padded := func(src []float64, tail int) []float64 {
		buf := make([]float64, len(src)+tail)
		copy(buf, src)
		for i := len(src); i < len(buf); i++ {
			buf[i] = canary
		}
		return buf
	}
	for n := 0; n < 600; n++ {
		in, out := 1+rng.Intn(130), 1+rng.Intn(130)
		nw := in * out
		step := 1 + rng.Intn(50)
		h := adamHyper{c1: 1 - math.Pow(beta1, float64(step)), c2: 1 - math.Pow(beta2, float64(step)),
			lr: 0.01, scale: 1}
		if n%2 == 1 {
			h.scale = rng.Float64()
		}
		ref := NewLinear(rng, in, out)
		specialRow(rng, ref.B, false)
		attachGrads(ref)
		specialRow(rng, ref.GW, true)
		specialRow(rng, ref.GB, true)
		m, v := make([]float64, nw+out), make([]float64, nw+out)
		specialRow(rng, m, true)
		specialRow(rng, v, true)
		attachMirror(ref)

		p, g := padded(ref.W, pad), padded(ref.GW, pad)
		pm, pv := padded(m[:nw], pad), padded(v[:nw], pad)
		mt := padded(make([]float64, nw), out+pad)
		for i := range nw {
			mt[i] = stale
		}
		b, gb := padded(ref.B, pad), padded(ref.GB, pad)
		bm, bv := padded(m[nw:], pad), padded(v[nw:], pad)
		adamRows(p[:nw], g[:nw], pm[:nw], pv[:nw], &mt[0], out, in, &h)
		adamRows(b[:out], gb[:out], bm[:out], bv[:out], nil, 1, out, &h)

		h.update(ref.W, ref.GW, m[:nw], v[:nw])
		h.update(ref.B, ref.GB, m[nw:], v[nw:])
		ref.mirror.load(0, ref)

		name := fmt.Sprintf("layer %d in=%d out=%d scale=%v", n, in, out, h.scale)
		zeros := make([]float64, max(nw, out))
		for _, c := range []struct {
			what      string
			got, want []float64
		}{
			{"W", p, ref.W}, {"GW", g, zeros[:nw]}, {"W's m", pm, m[:nw]}, {"W's v", pv, v[:nw]},
			{"mirror", mt, ref.mirror.W},
			{"B", b, ref.B}, {"GB", gb, zeros[:out]}, {"B's m", bm, m[nw:]}, {"B's v", bv, v[nw:]},
			{"oracle GW", ref.GW, zeros[:nw]}, {"oracle GB", ref.GB, zeros[:out]},
		} {
			for i := range c.want {
				if !equalBits(c.got[i], c.want[i]) {
					t.Fatalf("%s: %s[%d] = %v (%#x), want %v (%#x)", name, c.what, i,
						c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
				}
			}
			for i, x := range c.got[len(c.want):] {
				if x != canary {
					t.Fatalf("%s: canary %d past the end of %s overwritten with %v", name, i, c.what, x)
				}
			}
		}
	}
}

func snapshotAll(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = append([]float64(nil), x...)
	}
	return out
}

// TestTrainingMirror covers the tape forward over the transposed mirror:
// bit-equal to affineInto on every shape, attached by AttachMirror,
// reloaded by attaching it again on the same storage, shared by shadows
// made while it exists, never read after DropMirror.
func TestTrainingMirror(t *testing.T) {
	needAsm(t)
	rng := rand.New(rand.NewSource(19))
	affine := func(l *Linear, x []float64) []float64 {
		y := make([]float64, l.Out)
		l.affineInto(y, x)
		return y
	}
	for _, in := range kernelDims {
		for _, out := range kernelDims {
			l := NewLinear(rng, in, out)
			awkward(rng, l.B)
			x := make([]float64, in)
			awkward(rng, x)
			want := affine(l, x)

			attachMirror(l)
			if l.mirror.W == nil {
				t.Fatalf("in=%d out=%d: AttachMirror built no mirror", in, out)
			}
			tape := NewTape()
			sameBits(t, fmt.Sprintf("in=%d out=%d Apply over mirror", in, out), l.Apply(tape, tape.Const(x)).Data, want)
			shadow := l.GradShadow()
			sameBits(t, "shadow Apply over shared mirror", shadow.Apply(tape, tape.Const(x)).Data, want)

			// An in-place update reaches the tape only through a refresh,
			// and reaches the shadow through the same backing array.
			for i := range l.W {
				l.W[i] = -l.W[i]
			}
			want = affine(l, x)
			l.AttachMirror(l.mirror.W) // a re-attach on the same storage reloads it
			sameBits(t, "Apply after refresh", l.Apply(tape, tape.Const(x)).Data, want)
			sameBits(t, "shadow Apply after refresh", shadow.Apply(tape, tape.Const(x)).Data, want)

			// A dropped mirror is never read again, poisoned or not.
			for i := range l.mirror.W {
				l.mirror.W[i] = math.NaN()
			}
			l.DropMirror()
			sameBits(t, "Apply after DropMirror", l.Apply(tape, tape.Const(x)).Data, want)
		}
	}

	useAffineAsm = false
	l := NewLinear(rng, 4, 4)
	attachMirror(l)
	useAffineAsm = true
	if l.mirror.W != nil {
		t.Error("AttachMirror built a mirror with the kernels switched off")
	}
}

// TestFoldGradsSkipsUntouchedShadows: Linear.FoldGrads adds a shadow's
// gradients only when a backprop has touched it since the last fold, and
// then leaves it all +0 and untouched. An untouched shadow is poisoned
// with a NaN here, which the fold must never read.
func TestFoldGradsSkipsUntouchedShadows(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	l := NewLinear(rng, 9, 5)
	attachGrads(l)
	awkward(rng, l.GW)
	awkward(rng, l.GB)
	s := l.GradShadow()
	attachGrads(s)

	before := snapshotAll([][]float64{l.GW, l.GB})
	s.GW[3] = math.NaN()
	l.FoldGrads(s)
	sameBits(t, "GW after folding an untouched shadow", l.GW, before[0])
	sameBits(t, "GB after folding an untouched shadow", l.GB, before[1])
	s.GW[3] = 0

	x := &Node{Data: make([]float64, l.In), Grad: make([]float64, l.In)}
	dy := make([]float64, l.Out)
	awkward(rng, x.Data)
	for i := range dy {
		dy[i] = rng.NormFloat64()
	}
	s.backprop(NewTape(), dy, x, nil)
	want := snapshotAll([][]float64{l.GW, l.GB})
	for k, g := range [][]float64{s.GW, s.GB} {
		for i, v := range g {
			want[k][i] += v
		}
	}
	l.FoldGrads(s)
	sameBits(t, "GW after folding a touched shadow", l.GW, want[0])
	sameBits(t, "GB after folding a touched shadow", l.GB, want[1])
	sameBits(t, "shadow GW after the fold", s.GW, make([]float64, len(s.GW)))
	sameBits(t, "shadow GB after the fold", s.GB, make([]float64, len(s.GB)))
	if s.touched {
		t.Error("the fold left the shadow marked touched")
	}
}
