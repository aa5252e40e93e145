package core

import (
	"math"
	"testing"
	"testing/quick"

	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

func featQuery(t *testing.T) *stream.Query {
	t.Helper()
	b := stream.NewBuilder()
	s1 := b.AddSource(400, []stream.DataType{stream.TypeInt, stream.TypeString})
	s2 := b.AddSource(800, []stream.DataType{stream.TypeDouble, stream.TypeDouble, stream.TypeInt})
	f := b.AddFilter(stream.FilterStartsWith, stream.TypeString, 0.2)
	j := b.AddJoin(stream.TypeString, stream.Window{Type: stream.WindowSliding, Policy: stream.WindowCountBased, Size: 80, Slide: 40}, 0.001)
	a := b.AddAggregate(stream.AggMax, stream.TypeDouble, stream.TypeInt, true,
		stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowTimeBased, Size: 2, Slide: 2}, 0.5)
	k := b.AddSink()
	b.Connect(s1, f).Connect(f, j).Connect(s2, j)
	b.Chain(j, a, k)
	return b.MustBuild()
}

func featCluster() *hardware.Cluster {
	return &hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "e", CPU: 100, RAMMB: 2000, NetLatencyMS: 40, NetBandwidthMbps: 100},
		{ID: "c", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}}
}

func TestFeaturizerDeterministic(t *testing.T) {
	a := analyzed(featQuery(t))
	c := featCluster()
	p := sim.Placement{0, 0, 0, 1, 1, 1}
	f := Featurizer{}
	g1, _, err := f.BuildGraph(a, c, p)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := f.BuildGraph(a, c, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatal("node counts differ")
	}
	for i := range g1.Nodes {
		for j := range g1.Nodes[i].Feat {
			if g1.Nodes[i].Feat[j] != g2.Nodes[i].Feat[j] {
				t.Fatalf("node %d feature %d differs", i, j)
			}
		}
	}
}

func TestFeaturizerOneHots(t *testing.T) {
	a := analyzed(featQuery(t))
	c := featCluster()
	p := sim.Placement{0, 0, 0, 1, 1, 1}
	f := Featurizer{}
	g, _, err := f.BuildGraph(a, c, p)
	if err != nil {
		t.Fatal(err)
	}
	// Filter node: fn one-hot must select startswith (index 5).
	filt := g.Nodes[2]
	if filt.Kind != gnn.KindFilter {
		t.Fatalf("node 2 kind = %v", filt.Kind)
	}
	for i := 0; i < 7; i++ {
		want := 0.0
		if i == int(stream.FilterStartsWith) {
			want = 1
		}
		if filt.Feat[i] != want {
			t.Errorf("filter fn one-hot[%d] = %v, want %v", i, filt.Feat[i], want)
		}
	}
	// Literal one-hot: string = index 1 within next 3 slots.
	if filt.Feat[7+int(stream.TypeString)] != 1 {
		t.Error("literal one-hot wrong")
	}
	// Join node: key one-hot string.
	join := g.Nodes[3]
	if join.Kind != gnn.KindJoin {
		t.Fatalf("node 3 kind = %v", join.Kind)
	}
	if join.Feat[int(stream.TypeString)] != 1 {
		t.Error("join key one-hot wrong")
	}
}

func TestSelNormMonotone(t *testing.T) {
	f := func(aPct, bPct uint16) bool {
		a := float64(aPct%10000) / 10000
		b := float64(bPct%10000) / 10000
		if a > b {
			a, b = b, a
		}
		return normSel(a) <= normSel(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateNormMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		ra := float64(a%1000000) + 1
		rb := float64(b%1000000) + 1
		if ra > rb {
			ra, rb = rb, ra
		}
		return normRate(ra) <= normRate(rb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowExtentFeaturesScaleWithRate(t *testing.T) {
	w := &stream.Window{Type: stream.WindowSliding, Policy: stream.WindowTimeBased, Size: 4, Slide: 2}
	low := appendWindowExtent(nil, w, 100)
	high := appendWindowExtent(nil, w, 10000)
	// Seconds extent identical (time window), tuple extent grows.
	if low[0] != high[0] {
		t.Error("time-window seconds extent should not depend on rate")
	}
	if high[1] <= low[1] {
		t.Error("tuple extent must grow with rate")
	}
	if got := appendWindowExtent(nil, nil, 100); got[0] != 0 || got[1] != 0 {
		t.Error("nil window must produce zero extents")
	}
}

func TestHostNodeSharing(t *testing.T) {
	// Two operators on the same host must share one host node.
	a := analyzed(featQuery(t))
	c := featCluster()
	f := Featurizer{}
	all0 := sim.Placement{0, 0, 0, 0, 0, 0}
	g, _, err := f.BuildGraph(a, c, all0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := 0
	for _, nd := range g.Nodes {
		if nd.Kind == gnn.KindHost {
			hosts++
		}
	}
	if hosts != 1 {
		t.Fatalf("fully co-located placement has %d host nodes, want 1", hosts)
	}
	if len(g.PlaceEdges) != 6 {
		t.Fatalf("placement edges = %d, want 6", len(g.PlaceEdges))
	}
}

func TestBuildGraphRejectsInvalidInputs(t *testing.T) {
	q := featQuery(t)
	c := featCluster()
	f := Featurizer{}
	if _, _, err := f.BuildGraph(analyzed(q), c, sim.Placement{0}); err == nil {
		t.Error("short placement accepted")
	}
	// An invalid query is refused where a trace's featurization starts;
	// BuildGraph takes only an analysis.
	bad := &dataset.Trace{Query: &stream.Query{}, Cluster: c} // invalid: empty
	if _, err := newRecord(&f, bad); err == nil || err.Error() != "core: invalid query: empty query" {
		t.Errorf("newRecord of an empty query: %v, want core: invalid query: empty query", err)
	}
}

func TestFeatureModeString(t *testing.T) {
	for _, m := range []FeatureMode{FeatFull, FeatPlacementOnly, FeatQueryOnly} {
		if m.String() == "" {
			t.Error("empty mode name")
		}
	}
	if FeatureMode(9).String() == "" {
		t.Error("out-of-range mode must format")
	}
}

func TestNormLatencyInverseDirection(t *testing.T) {
	// Lower latency = stronger host, but the feature itself is just a
	// monotone transform; check the endpoints used by the grids.
	if normLat(1) >= normLat(160) {
		t.Error("latency norm must grow with latency")
	}
	if math.IsNaN(normLat(0)) {
		t.Error("zero latency must be clamped, not NaN")
	}
}

// TestFeaturizeAllocsCeiling pins the heap objects of featurizing one
// trace (newRecord, the training path, which analyses the trace's query)
// and of setting up one scoring session (NewBatch, on an analysis made
// outside it), averaged over 100 corpus traces: one Query.Analyze
// validates the query and derives the topology that the features and
// the message-passing plan both read, the operators' feature vectors are
// carved from one slab and the hosts' from another, and the node, edge
// and placement-edge slices are sized up front.
func TestFeaturizeAllocsCeiling(t *testing.T) {
	traces := testCorpus(t).Traces[:100]
	f := Featurizer{Mode: FeatFull}
	var record, batch float64
	for _, tr := range traces {
		record += testing.AllocsPerRun(3, func() {
			if _, err := newRecord(&f, tr); err != nil {
				t.Fatal(err)
			}
		})
		a := analyzed(tr.Query)
		batch += testing.AllocsPerRun(3, func() {
			if _, err := f.NewBatch(a, tr.Cluster); err != nil {
				t.Fatal(err)
			}
		})
	}
	record /= float64(len(traces))
	batch /= float64(len(traces))
	t.Logf("%.1f allocations per newRecord, %.1f per NewBatch on average", record, batch)
	if record > 13 || batch > 9 {
		t.Fatalf("%.1f allocations per newRecord and %.1f per NewBatch on average, want at most 13 and 9", record, batch)
	}
}
