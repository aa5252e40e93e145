package gnn

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"costream/internal/nn"
)

// packBase returns an operator-only base graph (source -> filter -> sink)
// whose feature slices and flow edges are shared by every candidate, the
// way core.BatchFeaturizer builds candidate graphs.
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

// packCandidates derives one candidate graph per placement, mirroring
// core's Featurizer.BuildGraph: node header copies sharing the base
// feature slices, host nodes appended in first-use order, placement edges
// in operator order.
func packCandidates(base *Graph, placements [][]int) []*Graph {
	out := make([]*Graph, len(placements))
	for ci, p := range placements {
		nodes := make([]Node, len(base.Nodes), len(base.Nodes)+len(p))
		copy(nodes, base.Nodes)
		g := &Graph{Nodes: nodes, FlowEdges: base.FlowEdges}
		hostNode := map[int]int{}
		for opIdx, h := range p {
			node, ok := hostNode[h]
			if !ok {
				node = len(g.Nodes)
				hostNode[h] = node
				g.Nodes = append(g.Nodes, Node{Kind: KindHost, Feat: packHostFeats[h]})
			}
			g.PlaceEdges = append(g.PlaceEdges, [2]int{opIdx, node})
		}
		out[ci] = g
	}
	return out
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

// oracleCandidates derives n candidate graphs over base the way core's
// Featurizer.BuildGraph does (see packCandidates), mixing what a search
// round packs into one tile: all operators on one host, and again with
// the placement edges reversed (the same children summed in another
// order); every operator on its own host, then that placement's whole
// single-move neighbourhood — each operator in turn moved to a spare
// host, so a join's candidates differ in exactly one parent — and exact
// duplicates; a random placement with single moves of it; and random
// placements, some with shuffled placement edges.
func oracleCandidates(rng *rand.Rand, base *Graph, n int) []*Graph {
	nOps := len(base.Nodes)
	hostFeats := make([][]float64, nOps+1) // host nOps is the spare
	for h := range hostFeats {
		hostFeats[h] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	var out []*Graph
	// add appends the graph of placement p; order, when set, permutes the
	// placement edges after the host nodes took their first-use order.
	add := func(p []int, order []int) {
		g := &Graph{Nodes: append([]Node(nil), base.Nodes...), FlowEdges: base.FlowEdges}
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
		if order != nil {
			edges := g.PlaceEdges
			g.PlaceEdges = make([][2]int, len(edges))
			for i, j := range order {
				g.PlaceEdges[i] = edges[j]
			}
		}
		out = append(out, g)
	}
	moved := func(p []int, op, h int) []int {
		q := append([]int(nil), p...)
		q[op] = h
		return q
	}
	together, spread, reversed := make([]int, nOps), make([]int, nOps), make([]int, nOps)
	for op := range spread {
		spread[op], reversed[op] = op, nOps-1-op
	}
	add(together, nil)
	add(spread, nil)
	add(together, reversed)
	for op := range spread {
		add(moved(spread, op, nOps), nil)
	}
	add(spread, nil)
	add(moved(spread, nOps-1, nOps), nil)
	random := func() []int {
		p := make([]int, nOps)
		for op := range p {
			p[op] = rng.Intn(nOps)
		}
		return p
	}
	start := random()
	add(start, nil)
	for op := 0; op < 4; op++ {
		add(moved(start, rng.Intn(nOps), rng.Intn(nOps+1)), nil)
	}
	for len(out) < n {
		var order []int
		if len(out)%3 == 0 {
			order = rng.Perm(nOps)
		}
		add(random(), order)
	}
	return out[:n]
}

// scoreTiles runs graphs through the packed kernel in consecutive tiles
// of the given width and returns the candidate-major member outputs.
func scoreTiles(t *testing.T, sm *StackedModel, graphs []*Graph, plan *Plan, tile int, pg **PackedGraphs, bs *BatchScratch) []float64 {
	t.Helper()
	got := make([]float64, len(graphs)*sm.K())
	for lo := 0; lo < len(graphs); lo += tile {
		hi := min(lo+tile, len(graphs))
		var err error
		if *pg, err = PackGraphs(graphs[lo:hi], plan, *pg); err != nil {
			t.Fatal(err)
		}
		if err := sm.InferEnsembleBatch(*pg, bs, got[lo*sm.K():hi*sm.K()]); err != nil {
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
	out, err := m.ForwardPlanned(nn.NewInferenceTape(), g, plan, nil)
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
// copies, duplicates and permuted placement edges, which is what the
// tile's shared rows must get exactly right) and with no hosts at all
// (query-only featurization). The outputs must match bit for bit at every
// tiling; one PackedGraphs and one BatchScratch are reused throughout,
// across shapes. The error, nil-scratch and
// allocation contracts of a tile of one are pinned by the
// TestInferEnsemble{NilScratch,RejectsBadInputs,Allocs} tests below.
func TestPackedMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const pool = 33
	var pg *PackedGraphs
	bs := NewBatchScratch()
	for _, shape := range []string{"chain", "fan-in", "fan-out"} {
		base := randomFlow(rng, shape)
		plan, err := NewPlan(base)
		if err != nil {
			t.Fatal(err)
		}
		noHosts := make([]*Graph, pool)
		for i := range noHosts {
			noHosts[i] = base
		}
		withHosts := oracleCandidates(rng, base, pool)
		for hi, graphs := range [][]*Graph{withHosts, noHosts} {
			hosts := []string{"hosts", "no hosts"}[hi]
			for _, k := range []int{1, 2, 3, 5} {
				models := newTestEnsemble(t, k)
				want := make([]float64, 0, pool*k)
				for _, g := range graphs {
					for _, mod := range models {
						want = append(want, tapeOracle(t, mod, g, plan))
					}
				}
				sm, err := Stack(models)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []int{1, 2, 7, 32, 33} {
					got := scoreTiles(t, sm, graphs, plan, c, &pg, bs)
					for i, w := range want {
						if got[i] != w {
							t.Fatalf("%s, %s, k=%d, C=%d, candidate %d member %d: packed %v != scalar %v",
								shape, hosts, k, c, i/k, i%k, got[i], w)
						}
					}
				}
			}
		}
	}
}

// tileOfOne is the fixture of the single-predict tests below: a k = 3
// ensemble stacked and one candidate packed as a tile of one. Their names predate the collapse of the per-graph engine; what
// they pin is the C = 1 case of InferEnsembleBatch.
type tileOfOne struct {
	models []*Model
	sm     *StackedModel
	plan   *Plan
	graphs []*Graph
	pg     *PackedGraphs
}

func newTileOfOne(t *testing.T) *tileOfOne {
	t.Helper()
	f := &tileOfOne{models: newTestEnsemble(t, 3)}
	base := packBase()
	var err error
	if f.plan, err = NewPlan(base); err != nil {
		t.Fatal(err)
	}
	f.graphs = packCandidates(base, packPlacements[1:2])
	if f.sm, err = Stack(f.models); err != nil {
		t.Fatal(err)
	}
	if f.pg, err = PackGraphs(f.graphs, f.plan, nil); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestInferEnsembleNilScratch checks that a single predict without a
// scratch allocates its own planes and still matches the scalar oracle.
func TestInferEnsembleNilScratch(t *testing.T) {
	f := newTileOfOne(t)
	out := make([]float64, f.sm.K())
	if err := f.sm.InferEnsembleBatch(f.pg, nil, out); err != nil {
		t.Fatal(err)
	}
	for m, mod := range f.models {
		if want := tapeOracle(t, mod, f.graphs[0], f.plan); out[m] != want {
			t.Fatalf("nil scratch, member %d: packed %v != scalar %v", m, out[m], want)
		}
	}
}

// TestInferEnsembleRejectsBadInputs checks that a wrong output length and
// a wrong operator or host feature width are errors on a tile of one.
func TestInferEnsembleRejectsBadInputs(t *testing.T) {
	f := newTileOfOne(t)
	if err := f.sm.InferEnsembleBatch(f.pg, nil, make([]float64, f.sm.K()-1)); err == nil {
		t.Fatal("short output buffer accepted")
	}
	out := make([]float64, f.sm.K())
	for name, corrupt := range map[string]func(g *Graph){
		"operator": func(g *Graph) { g.Nodes[0].Feat = []float64{1} }, // encoder expects 2
		"host":     func(g *Graph) { g.Nodes[len(g.Nodes)-1].Feat = []float64{1, 2, 3} },
	} {
		bad := packCandidates(packBase(), packPlacements[1:2])
		corrupt(bad[0])
		badPG, err := PackGraphs(bad, f.plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.sm.InferEnsembleBatch(badPG, nil, out); err == nil {
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
	if err := f.sm.InferEnsembleBatch(f.pg, bs, out); err != nil { // grow the planes
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if f.pg, err = PackGraphs(f.graphs, f.plan, f.pg); err != nil {
			t.Fatal(err)
		}
		if err := f.sm.InferEnsembleBatch(f.pg, bs, out); err != nil {
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
	plan, err := NewPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*Graph{base, base, base}
	pg, err := PackGraphs(graphs, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(graphs)*sm.K())
	if err := sm.InferEnsembleBatch(pg, nil, got); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, sm.K())
	for m, mod := range models {
		want[m] = tapeOracle(t, mod, base, plan)
	}
	for ci := range graphs {
		for m := 0; m < sm.K(); m++ {
			if got[ci*sm.K()+m] != want[m] {
				t.Fatalf("candidate %d member %d: %v != %v", ci, m, got[ci*sm.K()+m], want[m])
			}
		}
	}
}

// TestPackGraphsRejectsForeignGraphs checks the structural-sharing guard:
// graphs that merely equal the base by value (copied features) or break
// the op/host split are rejected, so mis-batched inference cannot happen
// silently.
func TestPackGraphsRejectsForeignGraphs(t *testing.T) {
	base := packBase()
	plan, err := NewPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	graphs := packCandidates(base, packPlacements[:2])

	// A value-equal copy of an operator feature vector is not sharing.
	copied := packCandidates(base, packPlacements[2:3])[0]
	copied.Nodes[1].Feat = append([]float64(nil), copied.Nodes[1].Feat...)
	if _, err := PackGraphs([]*Graph{graphs[0], copied}, plan, nil); err == nil ||
		!strings.Contains(err.Error(), "share") {
		t.Fatalf("copied-feature graph packed without error (err=%v)", err)
	}

	// An operator node appended after the host section breaks the split.
	bad := packCandidates(base, packPlacements[:1])[0]
	bad.Nodes = append(bad.Nodes, Node{Kind: KindFilter, Feat: []float64{1, 2, 3}})
	if _, err := PackGraphs([]*Graph{bad}, plan, nil); err == nil {
		t.Fatal("op-after-host graph packed without error")
	}

	if _, err := PackGraphs(nil, plan, nil); err == nil {
		t.Fatal("empty pack accepted")
	}
}

// TestPackGraphsSharesHostRows: slots that carry the same feature array
// share one encoder row, in first-use order, and a value-equal copy of a
// host vector (what BatchFeaturizer's first-use race can produce) takes a
// row of its own without changing any output.
func TestPackGraphsSharesHostRows(t *testing.T) {
	base := packBase()
	plan, err := NewPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	graphs := packCandidates(base, packPlacements)
	pg, err := PackGraphs(graphs, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(pg.hostUniq), len(packHostFeats); got != want {
		t.Fatalf("%d slots packed into %d encoder rows, want %d", pg.hostOff[pg.c], got, want)
	}
	for s, row := range pg.hostRow[:pg.hostOff[pg.c]] {
		if first := pg.hostUniq[row]; first > s || &pg.hostFeat[first][0] != &pg.hostFeat[s][0] {
			t.Fatalf("slot %d reads row %d, first carried by slot %d with other features", s, row, first)
		}
	}

	sm, err := Stack(newTestEnsemble(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(graphs)*sm.K())
	if err := sm.InferEnsembleBatch(pg, nil, want); err != nil {
		t.Fatal(err)
	}
	last := graphs[len(graphs)-1]
	host := &last.Nodes[len(last.Nodes)-1]
	host.Feat = append([]float64(nil), host.Feat...)
	if pg, err = PackGraphs(graphs, plan, pg); err != nil {
		t.Fatal(err)
	}
	if got, want := len(pg.hostUniq), len(packHostFeats)+1; got != want {
		t.Fatalf("copied host vector: %d encoder rows, want %d", got, want)
	}
	got := make([]float64, len(want))
	if err := sm.InferEnsembleBatch(pg, nil, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: %v with a duplicate row, %v without", i, got[i], want[i])
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
	plan, err := NewPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	placements := [][]int{{0, 0, 1}, {0, 0, 2}, {2, 0, 1}, {0, 1, 1}, {0, 1, 0}, {0, 0, 1}}
	graphs := packCandidates(base, placements)
	models := newTestEnsemble(t, 2)
	sm, err := Stack(models)
	if err != nil {
		t.Fatal(err)
	}
	// pack packs the tile, checks every output against the scalar oracle
	// and returns the row counts with the phase-3 rows per flow step.
	pack := func(graphs []*Graph) ([3]PhaseRows, []int) {
		t.Helper()
		pg, err := PackGraphs(graphs, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(graphs)*sm.K())
		if err := sm.InferEnsembleBatch(pg, nil, got); err != nil {
			t.Fatal(err)
		}
		for ci, g := range graphs {
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
	rows, steps := pack(graphs)
	if rows != wantRows || !slices.Equal(steps, wantSteps) {
		t.Fatalf("rows %v, per flow step %v; want %v, %v", rows, steps, wantRows, wantSteps)
	}
	// The duplicate requested rows and added none.
	rows, steps = pack(graphs[:5])
	wantRows[0].Requested, wantRows[1].Requested, wantRows[2].Requested = 11, 15, 10
	if rows != wantRows || !slices.Equal(steps, wantSteps) {
		t.Fatalf("without the duplicate: rows %v, per flow step %v; want %v, %v", rows, steps, wantRows, wantSteps)
	}

	// The child sum is a floating-point sum, so the order of the children
	// is part of the key: the same three operators on the same host in
	// another placement-edge order are a group of their own.
	together := packCandidates(base, [][]int{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}})
	together[1].PlaceEdges = [][2]int{{0, 3}, {2, 3}, {1, 3}}
	if rows, _ = pack(together); rows[0] != (PhaseRows{3, 2}) || rows[1] != (PhaseRows{9, 6}) {
		t.Fatalf("permuted placement edges: rows %v, want 2 groups of 3 children", rows)
	}
	// A value-equal copy of the host vector is another host row, hence
	// another group (pack checked that no output changed).
	host := &together[2].Nodes[3]
	host.Feat = append([]float64(nil), host.Feat...)
	if rows, _ = pack(together); rows[0] != (PhaseRows{3, 3}) || rows[1] != (PhaseRows{9, 9}) {
		t.Fatalf("copied host vector: rows %v, want a group per candidate", rows)
	}
	// A tile of one computes what it requests.
	if rows, _ = pack(graphs[2:3]); rows != [3]PhaseRows{{3, 3}, {3, 3}, {2, 2}} {
		t.Fatalf("tile of one: rows %v", rows)
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
	plan, err := NewPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	graphs := packCandidates(base, packPlacements)
	var pg *PackedGraphs
	bs := NewBatchScratch()
	out := make([]float64, len(graphs)*sm.K())
	if pg, err = PackGraphs(graphs, plan, pg); err != nil {
		t.Fatal(err)
	}
	if err := sm.InferEnsembleBatch(pg, bs, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if pg, err = PackGraphs(graphs, plan, pg); err != nil {
			t.Fatal(err)
		}
		if err := sm.InferEnsembleBatch(pg, bs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state pack+batch pass allocates %.1f times per run, want 0", allocs)
	}
}
