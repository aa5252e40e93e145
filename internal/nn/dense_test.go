package nn

import (
	"math"
	"math/rand"
	"testing"
)

func randRows(rng *rand.Rand, rows, dim int) []float64 {
	x := make([]float64, rows*dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// tapeInfer runs the MLP on an inference tape without training mirrors:
// the scalar oracle of the stacked kernels.
func tapeInfer(m *MLP, x []float64) []float64 {
	t := NewInferenceTape()
	return m.Apply(t, t.Const(x)).Data
}

// TestStackedMLPSharedMatchesInfer checks that ForwardShared is
// bit-identical, member for member, to running each MLP on an inference
// tape on every row.
func TestStackedMLPSharedMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const k, rows, in, hid, out = 3, 7, 11, 16, 5
	mlps := make([]*MLP, k)
	for m := range mlps {
		mlps[m] = NewMLP(rng, in, hid, out)
	}
	s, err := StackMLPs(mlps)
	if err != nil {
		t.Fatal(err)
	}
	x := randRows(rng, rows, in)
	dst := make([]float64, rows*k*out)
	s.ForwardShared(dst, x, rows, &DenseScratch{})
	for r := 0; r < rows; r++ {
		for m := 0; m < k; m++ {
			want := tapeInfer(mlps[m], x[r*in:(r+1)*in])
			got := dst[r*k*out+m*out : r*k*out+(m+1)*out]
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("row %d member %d out %d: got %v want %v", r, m, o, got[o], want[o])
				}
			}
		}
	}
}

// TestStackedMLPBlocksMatchesInfer checks the interleaved member-block
// path against each member on an inference tape.
func TestStackedMLPBlocksMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const k, rows, in, hid, out = 4, 5, 9, 13, 3
	mlps := make([]*MLP, k)
	for m := range mlps {
		mlps[m] = NewMLP(rng, in, hid, out)
	}
	s, err := StackMLPs(mlps)
	if err != nil {
		t.Fatal(err)
	}
	x := randRows(rng, rows, k*in)
	dst := make([]float64, rows*k*out)
	s.ForwardBlocks(dst, x, rows, &DenseScratch{})
	for r := 0; r < rows; r++ {
		for m := 0; m < k; m++ {
			want := tapeInfer(mlps[m], x[r*k*in+m*in:r*k*in+(m+1)*in])
			got := dst[r*k*out+m*out : r*k*out+(m+1)*out]
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("row %d member %d out %d: got %v want %v", r, m, o, got[o], want[o])
				}
			}
		}
	}
}

// TestStackedTransposeMatchesAffineInto holds StackedLinear.BlockRows on
// the portable kernel, which reads the transposed weights StackLinears
// writes, to Linear.affineInto and leakyReLUInPlace over each layer's own
// row-major weights, bit for bit (a NaN matches any NaN, see equalBits),
// on 600 generated layers: in and out drawn from [1, 130], one or three
// members, 1-40 rows, activation on or off, biases with signed zeros and
// denormals, an output that sums signed zeros only, and every third input
// row holding infinities and NaNs. The kernel tests compare readers of
// one transposed copy; this test checks the transposition itself, on
// every architecture.
func TestStackedTransposeMatchesAffineInto(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for range 600 {
		k := []int{1, 3}[rng.Intn(2)]
		in, out, rows, act := 1+rng.Intn(130), 1+rng.Intn(130), 1+rng.Intn(40), rng.Intn(2) == 0
		layers := make([]*Linear, k)
		for m := range layers {
			layers[m] = NewLinear(rng, in, out)
			specialRow(rng, layers[m].B, false)
		}
		clear(layers[0].W[:in])
		layers[0].B[0] = math.Copysign(0, -1)
		s := stackOn(t, layers, false)

		x := make([]float64, rows*k*in)
		for r := 0; r < rows; r++ {
			specialRow(rng, x[r*k*in:(r+1)*k*in], r%3 == 2)
		}
		got := make([]float64, rows*k*out)
		s.BlockRows(got, x, rows, leakySlope, act)
		want := make([]float64, out)
		for r := 0; r < rows; r++ {
			for m, l := range layers {
				l.affineInto(want, x[(r*k+m)*in:][:in])
				if act {
					leakyReLUInPlace(want, leakySlope)
				}
				for o, w := range want {
					if g := got[(r*k+m)*out+o]; !equalBits(g, w) {
						t.Fatalf("k=%d in=%d out=%d rows=%d act=%v row %d member %d output %d: stacked %v (%#x) affineInto %v (%#x)",
							k, in, out, rows, act, r, m, o, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestStackedMLPRejectsMismatches checks shape validation.
func TestStackedMLPRejectsMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewMLP(rng, 4, 8, 2)
	bDeep := NewMLP(rng, 4, 8, 8, 2)
	bWide := NewMLP(rng, 4, 9, 2)
	if _, err := StackMLPs(nil); err == nil {
		t.Fatal("stacking zero MLPs should fail")
	}
	for name, other := range map[string]*MLP{"depth": bDeep, "width": bWide} {
		if _, err := StackMLPs([]*MLP{a, other}); err == nil {
			t.Fatalf("stacking mismatched %s should fail", name)
		}
	}
}

// TestStackedForwardAllocs checks the steady-state kernel path allocates
// nothing once the scratch has grown.
func TestStackedForwardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k, rows, in, hid, out = 3, 8, 12, 16, 4
	mlps := make([]*MLP, k)
	for m := range mlps {
		mlps[m] = NewMLP(rng, in, hid, out)
	}
	s, err := StackMLPs(mlps)
	if err != nil {
		t.Fatal(err)
	}
	x := randRows(rng, rows, k*in)
	dst := make([]float64, rows*k*out)
	sc := &DenseScratch{}
	s.ForwardBlocks(dst, x, rows, sc) // grow buffers
	allocs := testing.AllocsPerRun(50, func() {
		s.ForwardBlocks(dst, x, rows, sc)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ForwardBlocks allocates %v times per call, want 0", allocs)
	}
}
