package nn

import (
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
