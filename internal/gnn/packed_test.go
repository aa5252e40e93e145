package gnn

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"costream/internal/nn"
)

// packBase returns an operator-only base graph (source -> filter -> sink):
// the part every candidate of a test tile shares.
func packBase() *Graph {
	return &Graph{
		Nodes: []Node{
			{Kind: KindSource, Feat: []float64{0.4, 0.5}},
			{Kind: KindFilter, Feat: []float64{0.2, 0.9, 0.1}},
			{Kind: KindSink, Feat: []float64{1}},
		},
		FlowEdges: [][2]int{{0, 1}, {1, 2}},
	}
}

var packHostFeats = [][]float64{
	{0.5, 0.5, 0.5, 0.5},
	{1, 1, 1, 1},
	{0.1, 0.8, 0.3, 0.6},
}

// packCandidates derives one candidate graph per placement over the
// hosts packHostFeats: the tape oracle's input for a packed tile.
func packCandidates(base *Graph, placements [][]int) []*Graph {
	return candidateGraphs(base, packHostFeats, placements)
}

// candidateGraphs derives one candidate graph per placement, mirroring
// core's Featurizer.BuildGraph: the base operator nodes, host nodes
// appended in first-use order, placement edges in operator order.
func candidateGraphs(base *Graph, hostFeats [][]float64, placements [][]int) []*Graph {
	out := make([]*Graph, len(placements))
	for ci, p := range placements {
		g := &Graph{Nodes: slices.Clone(base.Nodes), FlowEdges: base.FlowEdges}
		hostNode := map[int]int{}
		for op, h := range p {
			node, ok := hostNode[h]
			if !ok {
				node = len(g.Nodes)
				hostNode[h] = node
				g.Nodes = append(g.Nodes, Node{Kind: KindHost, Feat: hostFeats[h]})
			}
			g.PlaceEdges = append(g.PlaceEdges, [2]int{op, node})
		}
		out[ci] = g
	}
	return out
}

// hostsOf is the host lookup of a test tile over the given feature
// vectors.
func hostsOf(hostFeats [][]float64) func(int) []float64 {
	return func(h int) []float64 { return hostFeats[h] }
}

// pack packs placements of base over the hosts hostFeats into pg; nil
// hostFeats packs candidates without hosts.
func pack(t *testing.T, pg *PackedGraphs, base *Graph, plan *Plan, hostFeats [][]float64, placements [][]int) {
	t.Helper()
	var host func(int) []float64
	if hostFeats != nil {
		host = hostsOf(hostFeats)
	}
	if err := pg.Pack(base, plan, len(hostFeats), host, placements); err != nil {
		t.Fatal(err)
	}
}

// packPlacements covers the structural variety of one search round:
// co-located, spread, and partially shared hosts.
var packPlacements = [][]int{
	{0, 0, 0},
	{0, 1, 2},
	{2, 2, 1},
	{1, 0, 1},
	{2, 0, 0},
}

// randomFlow draws an operator-only base graph of one of three flow
// shapes with random feature vectors: a filter chain, a fan-in join over
// several sources, or one source fanning out to parallel filters that a
// join collects again.
func randomFlow(rng *rand.Rand, shape string) *Graph {
	dims := testDims()
	g := &Graph{}
	add := func(kind NodeKind) int {
		feat := make([]float64, dims[kind])
		for i := range feat {
			feat[i] = rng.Float64()*2 - 0.5
		}
		g.Nodes = append(g.Nodes, Node{Kind: kind, Feat: feat})
		return len(g.Nodes) - 1
	}
	flow := func(from, to int) { g.FlowEdges = append(g.FlowEdges, [2]int{from, to}) }
	switch shape {
	case "chain":
		prev := add(KindSource)
		for i := 1 + rng.Intn(4); i > 0; i-- {
			next := add(KindFilter)
			flow(prev, next)
			prev = next
		}
		flow(prev, add(KindSink))
	case "fan-in":
		srcs := make([]int, 2+rng.Intn(3))
		for i := range srcs {
			srcs[i] = add(KindSource)
		}
		join := add(KindJoin)
		for _, src := range srcs {
			flow(src, join)
		}
		agg := add(KindAggregate)
		flow(join, agg)
		flow(agg, add(KindSink))
	case "fan-out":
		src := add(KindSource)
		branches := make([]int, 3+rng.Intn(4))
		for i := range branches {
			branches[i] = add(KindFilter)
			flow(src, branches[i])
		}
		join := add(KindJoin)
		for _, br := range branches {
			flow(br, join)
		}
		flow(join, add(KindSink))
	}
	return g
}

// oracleCandidates draws host feature vectors for base's operators plus
// a spare and n placements onto them, mixing what a search round packs
// into one tile: all operators on one host; every operator on its own
// host, then that placement's whole single-move neighbourhood — each
// operator in turn moved to the spare host, so a join's candidates differ
// in exactly one parent — and exact duplicates; a random placement with
// single moves of it; and random placements.
func oracleCandidates(rng *rand.Rand, base *Graph, n int) (hostFeats [][]float64, placements [][]int) {
	nOps := len(base.Nodes)
	hostFeats = make([][]float64, nOps+1) // host nOps is the spare
	for h := range hostFeats {
		hostFeats[h] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	moved := func(p []int, op, h int) []int {
		q := slices.Clone(p)
		q[op] = h
		return q
	}
	together, spread := make([]int, nOps), make([]int, nOps)
	for op := range spread {
		spread[op] = op
	}
	placements = [][]int{together, spread, together}
	for op := range spread {
		placements = append(placements, moved(spread, op, nOps))
	}
	placements = append(placements, spread, moved(spread, nOps-1, nOps))
	random := func() []int {
		p := make([]int, nOps)
		for op := range p {
			p[op] = rng.Intn(nOps)
		}
		return p
	}
	start := random()
	placements = append(placements, start)
	for op := 0; op < 4; op++ {
		placements = append(placements, moved(start, rng.Intn(nOps), rng.Intn(nOps+1)))
	}
	for len(placements) < n {
		placements = append(placements, random())
	}
	return hostFeats, placements[:n]
}

// scoreTiles packs placements in consecutive tiles of the given width and
// returns the candidate-major member outputs.
func scoreTiles(t *testing.T, sm *StackedModel, base *Graph, plan *Plan, hostFeats [][]float64, placements [][]int, tile int, pg *PackedGraphs, bs *BatchScratch) []float64 {
	t.Helper()
	got := make([]float64, len(placements)*sm.K())
	for lo := 0; lo < len(placements); lo += tile {
		hi := min(lo+tile, len(placements))
		pack(t, pg, base, plan, hostFeats, placements[lo:hi])
		if err := sm.InferEnsembleBatch(pg, bs, got[lo*sm.K():hi*sm.K()]); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// tapeOracle is the scalar oracle of the packed kernel: one member on one
// graph, on an inference tape without training mirrors (the plain Go
// loops, no assembly).
func tapeOracle(t *testing.T, m *Model, g *Graph, plan *Plan) float64 {
	t.Helper()
	out, err := m.ForwardPlanned(nn.NewInferenceTape(), g, plan, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	return out.Data[0]
}

// TestPackedMatchesScalarOracle checks the one inference engine against
// the scalar oracle, tapeOracle per member and candidate, on
// generated inputs: seeded random flow shapes (chain, fan-in join, wide
// fan-out), ensembles of k members, tiles of C candidates — C = 1 is a
// single prediction — over the candidate mix of oracleCandidates (near
// copies and duplicates, which is what the tile's shared rows must get
// exactly right) and with no hosts at all (query-only featurization). The
// outputs must match bit for bit at every tiling; one PackedGraphs and one
// BatchScratch are reused throughout, across shapes. The error,
// nil-scratch and allocation contracts of a tile of one are pinned by the
// TestInferEnsemble{NilScratch,RejectsBadInputs,Allocs} tests below.
func TestPackedMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const pool = 33
	var pg PackedGraphs
	bs := NewBatchScratch()
	for _, shape := range []string{"chain", "fan-in", "fan-out"} {
		base := randomFlow(rng, shape)
		plan, err := newPlan(base)
		if err != nil {
			t.Fatal(err)
		}
		hostFeats, placements := oracleCandidates(rng, base, pool)
		noHosts := make([]*Graph, pool)
		for i := range noHosts {
			noHosts[i] = base
		}
		for _, tc := range []struct {
			name       string
			hostFeats  [][]float64
			placements [][]int
			graphs     []*Graph
		}{
			{"hosts", hostFeats, placements, candidateGraphs(base, hostFeats, placements)},
			{"no hosts", nil, make([][]int, pool), noHosts},
		} {
			for _, k := range []int{1, 2, 3, 5} {
				models := newTestEnsemble(t, k)
				want := make([]float64, 0, pool*k)
				for _, g := range tc.graphs {
					for _, mod := range models {
						want = append(want, tapeOracle(t, mod, g, plan))
					}
				}
				sm, err := Stack(models)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []int{1, 2, 7, 32, 33} {
					got := scoreTiles(t, sm, base, plan, tc.hostFeats, tc.placements, c, &pg, bs)
					for i, w := range want {
						if got[i] != w {
							t.Fatalf("%s, %s, k=%d, C=%d, candidate %d member %d: packed %v != scalar %v",
								shape, tc.name, k, c, i/k, i%k, got[i], w)
						}
					}
				}
			}
		}
	}
}

// tileOfOne is the fixture of the single-predict tests below: a k = 3
// ensemble stacked and one candidate packed as a tile of one. Their names
// predate the collapse of the per-graph engine; what they pin is the C = 1
// case of InferEnsembleBatch.
type tileOfOne struct {
	models     []*Model
	sm         *StackedModel
	base       *Graph
	plan       *Plan
	placements [][]int
	graph      *Graph
	pg         PackedGraphs
}

func newTileOfOne(t *testing.T) *tileOfOne {
	t.Helper()
	f := &tileOfOne{models: newTestEnsemble(t, 3), base: packBase(), placements: packPlacements[1:2]}
	var err error
	if f.plan, err = newPlan(f.base); err != nil {
		t.Fatal(err)
	}
	f.graph = packCandidates(f.base, f.placements)[0]
	if f.sm, err = Stack(f.models); err != nil {
		t.Fatal(err)
	}
	pack(t, &f.pg, f.base, f.plan, packHostFeats, f.placements)
	return f
}

// TestInferEnsembleNilScratch checks that a single predict without a
// scratch allocates its own planes and still matches the scalar oracle.
func TestInferEnsembleNilScratch(t *testing.T) {
	f := newTileOfOne(t)
	out := make([]float64, f.sm.K())
	if err := f.sm.InferEnsembleBatch(&f.pg, nil, out); err != nil {
		t.Fatal(err)
	}
	for m, mod := range f.models {
		if want := tapeOracle(t, mod, f.graph, f.plan); out[m] != want {
			t.Fatalf("nil scratch, member %d: packed %v != scalar %v", m, out[m], want)
		}
	}
}

// TestInferEnsembleRejectsBadInputs checks that a wrong output length and
// a wrong operator or host feature width are errors on a tile of one.
func TestInferEnsembleRejectsBadInputs(t *testing.T) {
	f := newTileOfOne(t)
	if err := f.sm.InferEnsembleBatch(&f.pg, nil, make([]float64, f.sm.K()-1)); err == nil {
		t.Fatal("short output buffer accepted")
	}
	out := make([]float64, f.sm.K())
	badOp := packBase()
	badOp.Nodes[0].Feat = []float64{1} // encoder expects 2
	badHost := slices.Clone(packHostFeats)
	badHost[2] = []float64{1, 2, 3}
	for name, tc := range map[string]struct {
		base      *Graph
		hostFeats [][]float64
	}{
		"operator": {badOp, packHostFeats},
		"host":     {packBase(), badHost},
	} {
		var bad PackedGraphs
		pack(t, &bad, tc.base, f.plan, tc.hostFeats, f.placements)
		if err := f.sm.InferEnsembleBatch(&bad, nil, out); err == nil {
			t.Fatalf("wrong %s feature width accepted", name)
		}
	}
}

// TestInferEnsembleAllocs pins the steady-state single predict (reused
// PackedGraphs and BatchScratch) to zero allocations.
func TestInferEnsembleAllocs(t *testing.T) {
	f := newTileOfOne(t)
	out := make([]float64, f.sm.K())
	bs := NewBatchScratch()
	if err := f.sm.InferEnsembleBatch(&f.pg, bs, out); err != nil { // grow the planes
		t.Fatal(err)
	}
	host := hostsOf(packHostFeats)
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.pg.Pack(f.base, f.plan, len(packHostFeats), host, f.placements); err != nil {
			t.Fatal(err)
		}
		if err := f.sm.InferEnsembleBatch(&f.pg, bs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state single predict allocates %v times per call, want 0", allocs)
	}
}

// TestInferEnsembleBatchNoHosts covers the query-only shape: candidates
// without host nodes pack and score as C copies of the shared base.
func TestInferEnsembleBatchNoHosts(t *testing.T) {
	models := newTestEnsemble(t, 2)
	sm, err := Stack(models)
	if err != nil {
		t.Fatal(err)
	}
	base := packBase()
	plan, err := newPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	var pg PackedGraphs
	pack(t, &pg, base, plan, nil, make([][]int, 3))
	got := make([]float64, 3*sm.K())
	if err := sm.InferEnsembleBatch(&pg, nil, got); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, sm.K())
	for m, mod := range models {
		want[m] = tapeOracle(t, mod, base, plan)
	}
	for ci := 0; ci < 3; ci++ {
		for m := 0; m < sm.K(); m++ {
			if got[ci*sm.K()+m] != want[m] {
				t.Fatalf("candidate %d member %d: %v != %v", ci, m, got[ci*sm.K()+m], want[m])
			}
		}
	}
}

// TestPackGraphsRejectsForeignGraphs checks the packer's own input checks:
// an empty tile, a placement of the wrong length and a host outside the
// tile's range are errors naming the candidate, so mis-packed inference
// cannot happen silently.
func TestPackGraphsRejectsForeignGraphs(t *testing.T) {
	base := packBase()
	plan, err := newPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	host := hostsOf(packHostFeats)
	var pg PackedGraphs
	for name, tc := range map[string]struct {
		placements [][]int
		want       string
	}{
		"empty tile":      {nil, "zero candidates"},
		"short placement": {[][]int{{0, 1, 2}, {0, 1}}, "candidate 1 places 2 operators, the graph has 3"},
		"long placement":  {[][]int{{0, 1, 2, 0}}, "candidate 0 places 4 operators"},
		"host too high":   {[][]int{{0, 1, 2}, {0, 3, 2}}, "candidate 1 places operator 1 on host 3, outside 0..2"},
		"negative host":   {[][]int{{0, 1, -1}}, "candidate 0 places operator 2 on host -1"},
	} {
		if err := pg.Pack(base, plan, len(packHostFeats), host, tc.placements); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	if err := pg.Pack(&Graph{}, plan, len(packHostFeats), host, packPlacements); err == nil {
		t.Error("graph without operators packed")
	}
}

// TestPackGraphsSharesHostRows: slots on the same host index share one
// encoder row, in first-use order over the tile, and two hosts with equal
// features take a row each without changing any output.
func TestPackGraphsSharesHostRows(t *testing.T) {
	base := packBase()
	plan, err := newPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	var pg PackedGraphs
	pack(t, &pg, base, plan, packHostFeats, packPlacements)
	if want := []int{0, 1, 2}; !slices.Equal(pg.rowHost, want) {
		t.Fatalf("%d slots packed into rows of hosts %v, want %v", len(pg.slotHost), pg.rowHost, want)
	}
	for s, row := range pg.hostRow {
		if pg.rowHost[row] != pg.slotHost[s] {
			t.Fatalf("slot %d on host %d reads the row of host %d", s, pg.slotHost[s], pg.rowHost[row])
		}
	}

	sm, err := Stack(newTestEnsemble(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(packPlacements)*sm.K())
	if err := sm.InferEnsembleBatch(&pg, nil, want); err != nil {
		t.Fatal(err)
	}
	// Host 3 carries host 0's features; the last candidate moves there.
	hostFeats := append(slices.Clone(packHostFeats), slices.Clone(packHostFeats[0]))
	placements := slices.Clone(packPlacements)
	last := len(placements) - 1
	placements[last] = slices.Clone(placements[last])
	for op, h := range placements[last] {
		if h == 0 {
			placements[last][op] = 3
		}
	}
	pack(t, &pg, base, plan, hostFeats, placements)
	if got, want := len(pg.rowHost), len(packHostFeats)+1; got != want {
		t.Fatalf("two hosts with equal features: %d encoder rows, want %d", got, want)
	}
	got := make([]float64, len(want))
	if err := sm.InferEnsembleBatch(&pg, nil, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: %v on the copied host, %v on the original", i, got[i], want[i])
		}
	}
}

// TestPackGraphsSharesRows pins the sharing rule on a hand-counted tile:
// a base placement of source -> filter -> sink, three single-operator
// moves, one swap and one exact duplicate. With hosts a, b, c and a
// placement group written host[children]:
//
//	base      a a b   a[0 1] b[2]
//	sink->c   a a c   a[0 1]       c[2]    shares the filter's flow row with base
//	source->c c a b   c[0]   a[1]  b[2]
//	filter->b a b b   a[0]   b[1 2]
//	swap      a b a   a[0 2] b[1]
//	duplicate a a b   nothing new
func TestPackGraphsSharesRows(t *testing.T) {
	base := packBase()
	plan, err := newPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	placements := [][]int{{0, 0, 1}, {0, 0, 2}, {2, 0, 1}, {0, 1, 1}, {0, 1, 0}, {0, 0, 1}}
	models := newTestEnsemble(t, 2)
	sm, err := Stack(models)
	if err != nil {
		t.Fatal(err)
	}
	// rows packs the tile, checks every output against the scalar oracle
	// and returns the row counts with the phase-3 rows per flow step.
	rows := func(hostFeats [][]float64, placements [][]int) ([3]PhaseRows, []int) {
		t.Helper()
		var pg PackedGraphs
		pack(t, &pg, base, plan, hostFeats, placements)
		got := make([]float64, len(placements)*sm.K())
		if err := sm.InferEnsembleBatch(&pg, nil, got); err != nil {
			t.Fatal(err)
		}
		for ci, g := range candidateGraphs(base, hostFeats, placements) {
			for m, mod := range models {
				if want := tapeOracle(t, mod, g, plan); got[ci*sm.K()+m] != want {
					t.Fatalf("candidate %d member %d: packed %v != scalar %v", ci, m, got[ci*sm.K()+m], want)
				}
			}
		}
		steps := make([]int, len(plan.order))
		for i := range steps {
			steps[i] = pg.flowOff[i+1] - pg.flowOff[i]
		}
		return pg.Rows(), steps
	}

	// 9 groups: a[0 1] b[2] c[2] c[0] a[1] a[0] b[1 2] a[0 2] b[1]; their
	// child lists hold 12 operators; the filter step has 4 distinct
	// (own, source) pairs, the sink step 5, the source none.
	wantRows := [3]PhaseRows{{13, 9}, {18, 12}, {12, 9}}
	wantSteps := []int{0, 4, 5}
	got, steps := rows(packHostFeats, placements)
	if got != wantRows || !slices.Equal(steps, wantSteps) {
		t.Fatalf("rows %v, per flow step %v; want %v, %v", got, steps, wantRows, wantSteps)
	}
	// The duplicate requested rows and added none.
	got, steps = rows(packHostFeats, placements[:5])
	wantRows[0].Requested, wantRows[1].Requested, wantRows[2].Requested = 11, 15, 10
	if got != wantRows || !slices.Equal(steps, wantSteps) {
		t.Fatalf("without the duplicate: rows %v, per flow step %v; want %v, %v", got, steps, wantRows, wantSteps)
	}

	// Host rows are keyed by host index: host 3, a value-equal copy of
	// host 0, is another host row, hence another group (rows checked that
	// no output changed).
	hostFeats := append(slices.Clone(packHostFeats), slices.Clone(packHostFeats[0]))
	if got, _ = rows(hostFeats, [][]int{{0, 0, 0}, {0, 0, 0}, {3, 3, 3}}); got[0] != (PhaseRows{3, 2}) || got[1] != (PhaseRows{9, 6}) {
		t.Fatalf("a copied host: rows %v, want 2 groups of 3 children", got)
	}
	// A tile of one computes what it requests.
	if got, _ = rows(packHostFeats, placements[2:3]); got != [3]PhaseRows{{3, 3}, {3, 3}, {2, 2}} {
		t.Fatalf("tile of one: rows %v", got)
	}
}

// TestInferEnsembleBatchAllocs pins the steady-state packed pass (reused
// PackedGraphs and BatchScratch) to zero allocations.
func TestInferEnsembleBatchAllocs(t *testing.T) {
	models := newTestEnsemble(t, 3)
	sm, err := Stack(models)
	if err != nil {
		t.Fatal(err)
	}
	base := packBase()
	plan, err := newPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	var pg PackedGraphs
	bs := NewBatchScratch()
	out := make([]float64, len(packPlacements)*sm.K())
	pack(t, &pg, base, plan, packHostFeats, packPlacements)
	if err := sm.InferEnsembleBatch(&pg, bs, out); err != nil {
		t.Fatal(err)
	}
	host := hostsOf(packHostFeats)
	allocs := testing.AllocsPerRun(20, func() {
		if err := pg.Pack(base, plan, len(packHostFeats), host, packPlacements); err != nil {
			t.Fatal(err)
		}
		if err := sm.InferEnsembleBatch(&pg, bs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state pack+batch pass allocates %.1f times per run, want 0", allocs)
	}
}
