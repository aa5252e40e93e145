package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFilterChainRateIsProductOfSelectivities(t *testing.T) {
	f := func(s1, s2, s3 uint8) bool {
		sel := func(v uint8) float64 { return float64(v%100+1) / 100 }
		b := NewBuilder()
		src := b.AddSource(1000, []DataType{TypeInt})
		f1 := b.AddFilter(FilterLT, TypeInt, sel(s1))
		f2 := b.AddFilter(FilterGT, TypeInt, sel(s2))
		f3 := b.AddFilter(FilterNE, TypeInt, sel(s3))
		k := b.AddSink()
		b.Chain(src, f1, f2, f3, k)
		q, err := b.Build()
		if err != nil {
			return false
		}
		r, err := q.Analyze()
		if err != nil {
			return false
		}
		want := 1000 * sel(s1) * sel(s2) * sel(s3)
		return math.Abs(r.In[k]-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinOutputGrowsWithWindow(t *testing.T) {
	mk := func(size float64) float64 {
		b := NewBuilder()
		s1 := b.AddSource(500, []DataType{TypeInt})
		s2 := b.AddSource(500, []DataType{TypeInt})
		j := b.AddJoin(TypeInt, Window{Type: WindowTumbling, Policy: WindowCountBased, Size: size, Slide: size}, 1e-3)
		k := b.AddSink()
		b.Connect(s1, j).Connect(s2, j).Connect(j, k)
		q := b.MustBuild()
		r, _ := q.Analyze()
		return r.Out[j]
	}
	if mk(200) <= mk(20) {
		t.Error("join output rate must grow with window size")
	}
}

func TestAggregationOutputCappedByFiringRate(t *testing.T) {
	// A global aggregate emits exactly once per fire regardless of
	// selectivity.
	b := NewBuilder()
	s := b.AddSource(10000, []DataType{TypeDouble})
	a := b.AddAggregate(AggAvg, TypeDouble, TypeInt, false,
		Window{Type: WindowSliding, Policy: WindowCountBased, Size: 100, Slide: 50}, 0.99)
	k := b.AddSink()
	b.Chain(s, a, k)
	q := b.MustBuild()
	r, _ := q.Analyze()
	fires := 10000.0 / 50
	if math.Abs(r.Out[a]-fires) > 1e-9 {
		t.Errorf("global agg rate %v, want %v (one tuple per fire)", r.Out[a], fires)
	}
}

func TestAvgFieldBytes(t *testing.T) {
	if got := AvgFieldBytes([]DataType{TypeInt, TypeString}); got != 20 {
		t.Errorf("avg bytes = %v, want (8+32)/2 = 20", got)
	}
	if got := AvgFieldBytes(nil); got != 8 {
		t.Errorf("empty schema avg = %v, want 8", got)
	}
}

func TestTreeShapedThreeWayJoin(t *testing.T) {
	// join(join(s1,s2), s3): data flow is a tree, not a chain.
	b := NewBuilder()
	s1 := b.AddSource(100, []DataType{TypeInt})
	s2 := b.AddSource(100, []DataType{TypeInt})
	s3 := b.AddSource(100, []DataType{TypeInt})
	j1 := b.AddJoin(TypeInt, Window{Type: WindowTumbling, Policy: WindowCountBased, Size: 10, Slide: 10}, 1e-3)
	j2 := b.AddJoin(TypeInt, Window{Type: WindowTumbling, Policy: WindowCountBased, Size: 10, Slide: 10}, 1e-3)
	k := b.AddSink()
	b.Connect(s1, j1).Connect(s2, j1).Connect(j1, j2).Connect(s3, j2).Connect(j2, k)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if q.Class() != ClassThreeWayJoin {
		t.Errorf("class = %v, want 3-Way-Join", q.Class())
	}
	r, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Output width: (1+1)+1 = 3 attributes.
	if r.Width[j2] != 3 {
		t.Errorf("j2 width = %d, want 3", r.Width[j2])
	}
}
