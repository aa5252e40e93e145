package stream

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func linearQuery(t *testing.T, rate, sel float64) *Query {
	t.Helper()
	b := NewBuilder()
	s := b.AddSource(rate, []DataType{TypeInt, TypeDouble, TypeString})
	f := b.AddFilter(FilterGT, TypeInt, sel)
	k := b.AddSink()
	b.Chain(s, f, k)
	q, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return q
}

func TestBuilderLinear(t *testing.T) {
	q := linearQuery(t, 1000, 0.5)
	if got := q.NumOps(); got != 3 {
		t.Fatalf("NumOps = %d, want 3", got)
	}
	if q.Class() != ClassLinear {
		t.Fatalf("Class = %v, want Linear", q.Class())
	}
	r, err := q.DeriveRates()
	if err != nil {
		t.Fatalf("DeriveRates: %v", err)
	}
	sink := q.Sink()
	if math.Abs(r.In[sink]-500) > 1e-9 {
		t.Errorf("sink arrival rate = %v, want 500", r.In[sink])
	}
}

func TestFilterRateProportionalToSelectivity(t *testing.T) {
	f := func(rate100 uint16, selP uint8) bool {
		rate := float64(rate100%10000) + 1
		sel := float64(selP%101) / 100
		b := NewBuilder()
		s := b.AddSource(rate, []DataType{TypeInt})
		fl := b.AddFilter(FilterLT, TypeInt, sel)
		k := b.AddSink()
		b.Chain(s, fl, k)
		q, err := b.Build()
		if err != nil {
			return false
		}
		r, err := q.DeriveRates()
		if err != nil {
			return false
		}
		want := rate * sel
		return math.Abs(r.Out[fl]-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinRateFormula(t *testing.T) {
	// Count-based window of 100 tuples per side, selectivity 0.01:
	// out = sel*(r1*W2 + r2*W1) = 0.01*(200*100 + 300*100) = 500.
	b := NewBuilder()
	s1 := b.AddSource(200, []DataType{TypeInt, TypeInt})
	s2 := b.AddSource(300, []DataType{TypeInt, TypeDouble})
	j := b.AddJoin(TypeInt, Window{Type: WindowTumbling, Policy: WindowCountBased, Size: 100, Slide: 100}, 0.01)
	k := b.AddSink()
	b.Connect(s1, j).Connect(s2, j).Connect(j, k)
	q, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r, err := q.DeriveRates()
	if err != nil {
		t.Fatalf("DeriveRates: %v", err)
	}
	if math.Abs(r.Out[j]-500) > 1e-9 {
		t.Errorf("join out rate = %v, want 500", r.Out[j])
	}
	if r.Width[j] != 4 {
		t.Errorf("join out width = %d, want 4", r.Width[j])
	}
	if q.Class() != ClassTwoWayJoin {
		t.Errorf("Class = %v, want 2-Way-Join", q.Class())
	}
}

func TestAggregationRate(t *testing.T) {
	// Count window size 100, slide 50, sel 0.2, rate 1000:
	// fires = 1000/50 = 20/s; groups = 0.2*100 = 20; out = 400.
	b := NewBuilder()
	s := b.AddSource(1000, []DataType{TypeInt, TypeDouble})
	a := b.AddAggregate(AggMean, TypeDouble, TypeInt, true,
		Window{Type: WindowSliding, Policy: WindowCountBased, Size: 100, Slide: 50}, 0.2)
	k := b.AddSink()
	b.Chain(s, a, k)
	q := b.MustBuild()
	r, err := q.DeriveRates()
	if err != nil {
		t.Fatalf("DeriveRates: %v", err)
	}
	if math.Abs(r.Out[a]-400) > 1e-9 {
		t.Errorf("agg out rate = %v, want 400", r.Out[a])
	}
}

func TestGlobalAggregationEmitsOneGroup(t *testing.T) {
	b := NewBuilder()
	s := b.AddSource(1000, []DataType{TypeDouble})
	a := b.AddAggregate(AggMax, TypeDouble, TypeInt, false,
		Window{Type: WindowTumbling, Policy: WindowTimeBased, Size: 2, Slide: 2}, 0.5)
	k := b.AddSink()
	b.Chain(s, a, k)
	q := b.MustBuild()
	r, _ := q.DeriveRates()
	if math.Abs(r.Out[a]-0.5) > 1e-9 { // fires = 1/2 per sec, 1 group
		t.Errorf("global agg out rate = %v, want 0.5", r.Out[a])
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Builder
	}{
		{"no sink", func() *Builder {
			b := NewBuilder()
			s := b.AddSource(100, []DataType{TypeInt})
			f := b.AddFilter(FilterLT, TypeInt, 0.5)
			b.Connect(s, f)
			return b
		}},
		{"two sinks", func() *Builder {
			b := NewBuilder()
			s := b.AddSource(100, []DataType{TypeInt})
			k1 := b.AddSink()
			k2 := b.AddSink()
			b.Connect(s, k1).Connect(s, k2)
			return b
		}},
		{"join one input", func() *Builder {
			b := NewBuilder()
			s := b.AddSource(100, []DataType{TypeInt})
			j := b.AddJoin(TypeInt, Window{Type: WindowTumbling, Policy: WindowCountBased, Size: 10, Slide: 10}, 0.1)
			k := b.AddSink()
			b.Chain(s, j, k)
			return b
		}},
		{"cycle", func() *Builder {
			b := NewBuilder()
			s := b.AddSource(100, []DataType{TypeInt})
			f1 := b.AddFilter(FilterLT, TypeInt, 0.5)
			f2 := b.AddFilter(FilterGT, TypeInt, 0.5)
			k := b.AddSink()
			b.Chain(s, f1, f2, k)
			b.Connect(f2, f1)
			return b
		}},
		{"zero rate source", func() *Builder {
			b := NewBuilder()
			s := b.AddSource(0, []DataType{TypeInt})
			k := b.AddSink()
			b.Chain(s, k)
			return b
		}},
		{"selectivity > 1", func() *Builder {
			b := NewBuilder()
			s := b.AddSource(100, []DataType{TypeInt})
			f := b.AddFilter(FilterLT, TypeInt, 1.5)
			k := b.AddSink()
			b.Chain(s, f, k)
			return b
		}},
		{"startswith on int literal", func() *Builder {
			b := NewBuilder()
			s := b.AddSource(100, []DataType{TypeString})
			f := b.AddFilter(FilterStartsWith, TypeInt, 0.5)
			k := b.AddSink()
			b.Chain(s, f, k)
			return b
		}},
		{"connect out of range", func() *Builder {
			b := NewBuilder()
			s := b.AddSource(100, []DataType{TypeInt})
			b.Connect(s, 99)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.build().Build(); err == nil {
				t.Errorf("Build succeeded, want error")
			}
		})
	}
}

func TestWindowValidate(t *testing.T) {
	bad := []Window{
		{Type: WindowSliding, Policy: WindowCountBased, Size: 0, Slide: 1},
		{Type: WindowSliding, Policy: WindowCountBased, Size: 10, Slide: 0},
		{Type: WindowSliding, Policy: WindowCountBased, Size: 10, Slide: 20},
		{Type: WindowTumbling, Policy: WindowCountBased, Size: 10, Slide: 5},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid window %+v", i, w)
		}
	}
	good := Window{Type: WindowSliding, Policy: WindowTimeBased, Size: 4, Slide: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v, want nil", good, err)
	}
}

func TestWindowExtents(t *testing.T) {
	cw := Window{Type: WindowSliding, Policy: WindowCountBased, Size: 100, Slide: 50}
	if got := cw.ExtentSeconds(200); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("count window extent seconds = %v, want 0.5", got)
	}
	if got := cw.FiresPerSecond(200); math.Abs(got-4) > 1e-9 {
		t.Errorf("count window fires = %v, want 4", got)
	}
	tw := Window{Type: WindowTumbling, Policy: WindowTimeBased, Size: 2, Slide: 2}
	if got := tw.ExtentTuples(300); math.Abs(got-600) > 1e-9 {
		t.Errorf("time window extent tuples = %v, want 600", got)
	}
	if got := tw.FiresPerSecond(300); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("time window fires = %v, want 0.5", got)
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	b := NewBuilder()
	s1 := b.AddSource(100, []DataType{TypeInt})
	s2 := b.AddSource(100, []DataType{TypeInt})
	j := b.AddJoin(TypeInt, Window{Type: WindowTumbling, Policy: WindowCountBased, Size: 10, Slide: 10}, 0.1)
	k := b.AddSink()
	b.Connect(s1, j).Connect(s2, j).Connect(j, k)
	q := b.MustBuild()
	o1, err := q.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := q.TopoOrder()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("TopoOrder not deterministic: %v vs %v", o1, o2)
		}
	}
	pos := make(map[int]int)
	for i, v := range o1 {
		pos[v] = i
	}
	for _, e := range q.Edges {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violates topo order %v", e, o1)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := linearQuery(t, 500, 0.3)
	c := q.Clone()
	c.Ops[1].Selectivity = 0.9
	if q.Ops[1].Selectivity == 0.9 {
		t.Error("Clone shares operator memory with original")
	}
	j := NewBuilder()
	s1 := j.AddSource(100, []DataType{TypeInt})
	s2 := j.AddSource(100, []DataType{TypeInt})
	jn := j.AddJoin(TypeInt, Window{Type: WindowTumbling, Policy: WindowCountBased, Size: 10, Slide: 10}, 0.1)
	k := j.AddSink()
	j.Connect(s1, jn).Connect(s2, jn).Connect(jn, k)
	qj := j.MustBuild()
	cj := qj.Clone()
	cj.Ops[2].Window.Size = 999
	if qj.Ops[2].Window.Size == 999 {
		t.Error("Clone shares window memory with original")
	}
}

func TestDeriveRatesIdempotent(t *testing.T) {
	q := linearQuery(t, 800, 0.25)
	r1, err := q.DeriveRates()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.DeriveRates()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Out {
		if r1.Out[i] != r2.Out[i] {
			t.Fatalf("DeriveRates not idempotent at op %d: %v vs %v", i, r1.Out[i], r2.Out[i])
		}
	}
}

func TestTupleBytesMonotone(t *testing.T) {
	f := func(w uint8) bool {
		a := TupleBytes(int(w), 8)
		b := TupleBytes(int(w)+1, 8)
		return b > a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnumStrings(t *testing.T) {
	if TypeString.String() != "string" {
		t.Errorf("TypeString.String() = %q", TypeString.String())
	}
	if OpJoin.String() != "join" {
		t.Errorf("OpJoin.String() = %q", OpJoin.String())
	}
	if FilterStartsWith.String() != "startswith" {
		t.Errorf("FilterStartsWith.String() = %q", FilterStartsWith.String())
	}
	if AggMean.String() != "mean" {
		t.Errorf("AggMean.String() = %q", AggMean.String())
	}
	if WindowTumbling.String() != "tumbling" || WindowCountBased.String() != "count" {
		t.Error("window enum strings wrong")
	}
	if ClassThreeWayJoinAgg.String() != "3-Way-Join+Agg" {
		t.Errorf("class string = %q", ClassThreeWayJoinAgg.String())
	}
	if DataType(99).String() == "" || OpType(99).String() == "" {
		t.Error("out-of-range enums must still format")
	}
}

func TestUpstreamDownstream(t *testing.T) {
	b := NewBuilder()
	s1 := b.AddSource(100, []DataType{TypeInt})
	s2 := b.AddSource(100, []DataType{TypeInt})
	j := b.AddJoin(TypeInt, Window{Type: WindowTumbling, Policy: WindowCountBased, Size: 10, Slide: 10}, 0.1)
	k := b.AddSink()
	b.Connect(s1, j).Connect(s2, j).Connect(j, k)
	q := b.MustBuild()
	ups := q.Upstream(j)
	if len(ups) != 2 || ups[0] != s1 || ups[1] != s2 {
		t.Errorf("Upstream(join) = %v, want [%d %d]", ups, s1, s2)
	}
	if d := q.Downstream(j); len(d) != 1 || d[0] != k {
		t.Errorf("Downstream(join) = %v, want [%d]", d, k)
	}
	if d := q.Downstream(k); len(d) != 0 {
		t.Errorf("Downstream(sink) = %v, want empty", d)
	}
}

// TestEdgeUnmarshalJSON: an edge decodes from exactly two JSON integers
// in the int range, as encoding/json reads an int, and from nothing else.
// The range's end is the platform's: MaxInt is the largest index accepted
// and MaxInt+1, written out in decimal, the first refused.
func TestEdgeUnmarshalJSON(t *testing.T) {
	for text, want := range map[string]Edge{
		`[0,1]`:                            {0, 1},
		` [ 3 ,	12 ] `:                     {3, 12},
		"[-0,\n-7]":                        {0, -7},
		fmt.Sprintf("[%d,0]", math.MaxInt): {math.MaxInt, 0},
	} {
		var e Edge
		if err := e.UnmarshalJSON([]byte(text)); err != nil || e != want {
			t.Errorf("%q: %v, %v; want %v", text, e, err, want)
		}
	}
	for _, text := range []string{
		``, `null`, `[]`, `[0]`, `[0,1,99]`, `[0,1,"x"]`, `[0,null]`, `[0,1.0]`, `[0,1e0]`,
		`[01,1]`, `[+1,1]`, `[-,1]`, `[0 1]`, `[0,1]]`, `[0,1],`, `{}`, `"[0,1]"`,
		"[" + strconv.FormatUint(math.MaxInt+1, 10) + ",0]", `[0,[1]]`,
	} {
		var e Edge
		err := e.UnmarshalJSON([]byte(text))
		if err == nil || e != (Edge{}) {
			t.Errorf("%q: accepted as %v", text, e)
		}
	}
	var q Query
	err := json.Unmarshal([]byte(`{"Edges":[[0,1],[1,2,3]]}`), &q)
	if want := "edge [1,2,3] is not [from, to]"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("decoding a query with a three-element edge: %v, want an error naming %q", err, want)
	}
}
