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

func TestBackwardAsmMatchesPortable(t *testing.T) {
	needAsm(t)
	rng := rand.New(rand.NewSource(16))
	for _, in := range kernelDims {
		for _, out := range kernelDims {
			for _, fused := range []bool{false, true} {
				name := fmt.Sprintf("in=%d out=%d fused=%v", in, out, fused)
				proto := NewLinear(rng, in, out)
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

				// run applies one of the three routes to a private copy of
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

				// The kernel called directly: no wrapper can quietly route
				// this one back to the Go loop.
				gw, gb, xg := run(func(l *Linear, x *Node) {
					a, alpha := dy, 1.0
					if fused {
						a, alpha = act, leakySlope
					}
					gf := make([]float64, out)
					affineBackwardAVX(&l.GW[0], &l.GB[0], &x.Grad[0], &l.W[0], &x.Data[0], &dy[0], &a[0], &gf[0], alpha, in, out)
				})
				sameBits(t, name+" kernel GW", gw, wantGW)
				sameBits(t, name+" kernel GB", gb, wantGB)
				sameBits(t, name+" kernel x.Grad", xg, wantXG)
				sameBits(t, name+" kernel dy (read-only)", dy, dy0)

				// And through Linear.backprop on either setting.
				for _, asm := range []bool{true, false} {
					useAffineAsm = asm
					gw, gb, xg = run(func(l *Linear, x *Node) { l.backprop(NewTape(), dy, x, outNode) })
					useAffineAsm = true
					sameBits(t, fmt.Sprintf("%s asm=%v GW", name, asm), gw, wantGW)
					sameBits(t, fmt.Sprintf("%s asm=%v GB", name, asm), gb, wantGB)
					sameBits(t, fmt.Sprintf("%s asm=%v x.Grad", name, asm), xg, wantXG)
				}
			}
		}
	}
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

func TestAdamStepAsmMatchesPortable(t *testing.T) {
	needAsm(t)
	sizes := []int{1, 3, 4, 5, 17, 65, 0, 128}
	for _, clip := range []float64{0, 20, 1e-3} { // off, hit by the bursts only, hit every step
		rng := rand.New(rand.NewSource(18))
		mk := func() [][]float64 {
			out := make([][]float64, len(sizes))
			for i, n := range sizes {
				out[i] = make([]float64, n)
			}
			return out
		}
		pa, pb, grads := mk(), mk(), mk()
		for k := range pa {
			awkward(rng, pa[k])
			copy(pb[k], pa[k])
		}
		asmOpt, goOpt := NewAdam(0.01, pa, grads), NewAdam(0.01, pb, grads)
		asmOpt.ClipNorm, goOpt.ClipNorm = clip, clip
		clipped := 0
		for step := 0; step < 50; step++ {
			var norm2 float64
			for _, g := range grads {
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
			if clip > 0 && math.Sqrt(norm2) > clip {
				clipped++
			}
			before := snapshotAll(grads)
			useAffineAsm = true
			asmOpt.Step()
			useAffineAsm = false
			goOpt.Step()
			useAffineAsm = true
			for k := range sizes {
				what := fmt.Sprintf("clip=%v step %d group %d", clip, step, k)
				sameBits(t, what+" params", pa[k], pb[k])
				sameBits(t, what+" m", asmOpt.m[k], goOpt.m[k])
				sameBits(t, what+" v", asmOpt.v[k], goOpt.v[k])
				sameBits(t, what+" grads (read-only)", grads[k], before[k])
			}
		}
		switch {
		case clip == 0 && clipped != 0, clip == 20 && (clipped == 0 || clipped == 50), clip == 1e-3 && clipped != 50:
			t.Errorf("clip=%v: %d of 50 steps clipped; the case does not test what it names", clip, clipped)
		}
		asmOpt.ZeroGrads()
		for k := range grads {
			sameBits(t, "ZeroGrads", grads[k], make([]float64, len(grads[k])))
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
// bit-equal to affineInto on every shape, refreshed by RefreshMirror,
// shared by shadows made while it exists, never read after DropMirror.
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

			l.RefreshMirror()
			if l.wt == nil {
				t.Fatalf("in=%d out=%d: RefreshMirror built no mirror", in, out)
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
			l.RefreshMirror()
			sameBits(t, "Apply after refresh", l.Apply(tape, tape.Const(x)).Data, want)
			sameBits(t, "shadow Apply after refresh", shadow.Apply(tape, tape.Const(x)).Data, want)

			// A dropped mirror is never read again, poisoned or not.
			for i := range l.wt {
				l.wt[i] = math.NaN()
			}
			l.DropMirror()
			sameBits(t, "Apply after DropMirror", l.Apply(tape, tape.Const(x)).Data, want)
		}
	}

	useAffineAsm = false
	l := NewLinear(rng, 4, 4)
	l.RefreshMirror()
	useAffineAsm = true
	if l.wt != nil {
		t.Error("RefreshMirror built a mirror with the kernels switched off")
	}
}
