package placement

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

func testQuery() *stream.Query {
	b := stream.NewBuilder()
	s1 := b.AddSource(500, []stream.DataType{stream.TypeInt, stream.TypeDouble})
	f1 := b.AddFilter(stream.FilterGT, stream.TypeInt, 0.5)
	s2 := b.AddSource(500, []stream.DataType{stream.TypeInt, stream.TypeInt})
	j := b.AddJoin(stream.TypeInt, stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowCountBased, Size: 40, Slide: 40}, 0.001)
	k := b.AddSink()
	b.Connect(s1, f1).Connect(f1, j).Connect(s2, j).Connect(j, k)
	return b.MustBuild()
}

// checked checks a test cluster, which must be valid.
func checked(c *hardware.Cluster) hardware.Checked {
	k, err := c.Check()
	if err != nil {
		panic(err)
	}
	return k
}

// analyzed analyses a test query, which must be valid.
func analyzed(q *stream.Query) *stream.Analysis {
	a, err := q.Analyze()
	if err != nil {
		panic(err)
	}
	return a
}

func testCluster() *hardware.Cluster {
	return &hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "edge-0", CPU: 50, RAMMB: 1000, NetLatencyMS: 80, NetBandwidthMbps: 50},
		{ID: "edge-1", CPU: 100, RAMMB: 2000, NetLatencyMS: 40, NetBandwidthMbps: 100},
		{ID: "fog-0", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
		{ID: "cloud-0", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}}
}

func TestRandomValidSatisfiesRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := analyzed(testQuery())
	c := checked(testCluster())
	for i := 0; i < 100; i++ {
		p, err := RandomValid(rng, a, c)
		if err != nil {
			t.Fatal(err)
		}
		if !Valid(a, c, p) {
			t.Fatalf("RandomValid produced invalid placement %v", p)
		}
	}
}

func TestValidRejectsCapabilityDecrease(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	// Sink (cloud-capable data end) on edge after fog: source chain
	// cloud -> edge violates increasing capability.
	p := sim.Placement{3, 3, 3, 3, 0} // everything on cloud, sink on weakest edge
	if Valid(a, c, p) {
		t.Error("placement with capability decrease accepted")
	}
}

func TestValidRejectsRevisit(t *testing.T) {
	b := stream.NewBuilder()
	s := b.AddSource(100, []stream.DataType{stream.TypeInt})
	f1 := b.AddFilter(stream.FilterGT, stream.TypeInt, 0.5)
	f2 := b.AddFilter(stream.FilterLT, stream.TypeInt, 0.5)
	k := b.AddSink()
	b.Chain(s, f1, f2, k)
	q := b.MustBuild()
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "fog-a", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
		{ID: "fog-b", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
	}})
	// a -> b -> a: returns to a previously visited host.
	if Valid(analyzed(q), c, sim.Placement{0, 1, 0, 0}) {
		t.Error("cyclic host sequence accepted")
	}
	// a -> a -> b -> b is fine (co-location + forward move).
	if !Valid(analyzed(q), c, sim.Placement{0, 0, 1, 1}) {
		t.Error("valid forward placement rejected")
	}
}

func TestValidAllowsCoLocation(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	p := sim.Placement{3, 3, 3, 3, 3}
	if !Valid(a, c, p) {
		t.Error("all-on-cloud co-location should be valid")
	}
}

// enumerate draws up to k distinct valid placements from rng, as
// RandomSample does for a budget of k: duplicate and dead-end draws share
// a miss budget of 8k+64, so a cluster that only rarely admits valid
// placements cannot stall it.
func enumerate(rng *rand.Rand, q *stream.Query, c *hardware.Cluster, k int) []sim.Placement {
	var out []sim.Placement
	seen := map[string]bool{}
	for misses := 0; len(out) < k && misses < 8*k+64; {
		p, err := RandomValid(rng, analyzed(q), checked(c))
		if err != nil || seen[fmt.Sprint(p)] {
			misses++
			continue
		}
		seen[fmt.Sprint(p)] = true
		out = append(out, p)
	}
	return out
}

func TestEnumerateDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := testQuery()
	c := testCluster()
	cands := enumerate(rng, q, c, 20)
	if len(cands) < 5 {
		t.Fatalf("only %d candidates enumerated", len(cands))
	}
	seen := map[string]bool{}
	for _, p := range cands {
		key := ""
		for _, h := range p {
			key += string(rune('a' + h))
		}
		if seen[key] {
			t.Fatalf("duplicate candidate %v", p)
		}
		seen[key] = true
		if !Valid(analyzed(q), checked(c), p) {
			t.Fatalf("invalid candidate %v", p)
		}
	}
}

func TestEnumerateImpossible(t *testing.T) {
	q := testQuery()
	// All hosts in the edge bin but data must flow upward: still legal
	// (same-bin transitions allowed), so use an empty-ish failing case:
	// no hosts at all cannot happen (cluster validation), so check that a
	// 1-host cluster still yields the all-on-one placement.
	c := &hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "only", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}}
	cands := enumerate(rand.New(rand.NewSource(3)), q, c, 10)
	if len(cands) != 1 {
		t.Fatalf("single-host cluster should have exactly 1 candidate, got %d", len(cands))
	}
}

// TestOptimizeWithOracle: a random-sample search driven by the simulator
// oracle examines the seed's Enumerate draws and picks the sane candidate
// with the lowest simulated latency among them.
func TestOptimizeWithOracle(t *testing.T) {
	q := testQuery()
	c := testCluster()
	cands := enumerate(rand.New(rand.NewSource(4)), q, c, 16)
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 20, 4
	oracle := &SimOracle{Cfg: cfg}
	res, err := Search(context.Background(), oracle, analyzed(q), checked(c), RandomSample{}, MinProcLatency, Budget{MaxCandidates: 16}, SearchOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Examined != len(cands) {
		t.Fatalf("search examined %d candidates, Enumerate drew %d", res.Examined, len(cands))
	}
	costs, errs := Score(context.Background(), oracle, analyzed(q), checked(c), cands, AllCosts)
	best := -1
	for i, pc := range costs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if sane(pc) && (best < 0 || pc.ProcLatencyMS < costs[best].ProcLatencyMS) {
			best = i
		}
	}
	if best < 0 || !reflect.DeepEqual(res.Placement, cands[best]) || res.Costs != costs[best] {
		t.Errorf("search chose %v %+v, the best sane candidate is %d of %v", res.Placement, res.Costs, best, cands)
	}
}

// TestOptimizeObjectives: a search under every objective returns a
// placement, and scoring no candidates is no work and no error.
func TestOptimizeObjectives(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 10, 2
	oracle := &SimOracle{Cfg: cfg}
	for _, obj := range []Objective{MinProcLatency, MinE2ELatency, MaxThroughput} {
		res, err := Search(context.Background(), oracle, a, c, RandomSample{}, obj, Budget{MaxCandidates: 8}, SearchOptions{Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		if res.Placement == nil {
			t.Fatalf("%v: nil placement", obj)
		}
	}
	if costs, errs := Score(context.Background(), oracle, a, c, nil, AllCosts); len(costs) != 0 || len(errs) != 0 {
		t.Errorf("scoring no candidates returned %d costs and %d errors", len(costs), len(errs))
	}
}

// fixedPredictor predicts costs[p[0]] for placement p.
func fixedPredictor(costs []PredCosts) Predictor {
	return PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (PredCosts, error) {
		return costs[p[0]], nil
	})
}

// TestOptimizeSanityFilter drives the search core with hand-made
// candidates: the paper's sanity check drops predicted failures and
// backpressure, and when it drops everything the cheapest candidate wins.
func TestOptimizeSanityFilter(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	// Fake candidates distinguished by first entry.
	cands := []sim.Placement{
		{0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1},
		{2, 2, 2, 2, 2},
	}
	costs := []PredCosts{
		{ProcLatencyMS: 1, Success: false, Backpressured: false}, // cheapest but fails
		{ProcLatencyMS: 5, Success: true, Backpressured: true},   // backpressured
		{ProcLatencyMS: 9, Success: true, Backpressured: false},  // sane
	}
	choose := func() *SearchResult {
		t.Helper()
		co := newCore(context.Background(), fixedPredictor(costs), a, c, MinProcLatency, Budget{MaxCandidates: 8}, SearchOptions{})
		co.ScoreRound(cands)
		res, err := co.result("fixed")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := choose()
	if res.Index != 2 {
		t.Errorf("chose candidate %d, want 2 (only sane one)", res.Index)
	}
	if res.Filtered != 2 {
		t.Errorf("Filtered = %d, want 2", res.Filtered)
	}
	// All candidates insane: fall back to cheapest.
	costs[2].Success = false
	if res := choose(); res.Index != 0 {
		t.Errorf("fallback chose %d, want 0 (cheapest)", res.Index)
	}
}

func TestOnlineMonitoringImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := analyzed(testQuery())
	c := checked(testCluster())
	// Deliberately poor but valid initial placement: everything on the
	// weakest fog-capable chain start.
	var initial sim.Placement
	for i := 0; i < 50; i++ {
		p, err := RandomValid(rng, a, c)
		if err != nil {
			t.Fatal(err)
		}
		initial = p
		break
	}
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 20, 4
	mcfg := DefaultMonitorConfig(cfg)
	steps, err := OnlineMonitoring(context.Background(), a, c, initial, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no monitoring steps")
	}
	if steps[0].ElapsedS != 0 {
		t.Error("first step must be at time 0")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].ElapsedS <= steps[i-1].ElapsedS {
			t.Error("elapsed time must increase")
		}
		if !Valid(a, c, steps[i].Placement) {
			t.Errorf("step %d placement invalid", i)
		}
	}
	last := steps[len(steps)-1].Metrics
	first := steps[0].Metrics
	if last.Success && first.Success && last.ProcLatencyMS > first.ProcLatencyMS*1.001 {
		t.Errorf("monitoring made latency worse: %v -> %v", first.ProcLatencyMS, last.ProcLatencyMS)
	}
}

func TestObjectiveString(t *testing.T) {
	if MinProcLatency.String() == "" || MaxThroughput.String() == "" || Objective(99).String() == "" {
		t.Error("objective strings must be non-empty")
	}
}

// TestValidSingleHostCluster: with one host everything co-locates; all
// three rules hold trivially and the generator finds the placement.
func TestValidSingleHostCluster(t *testing.T) {
	q := testQuery()
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "only", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}})
	if !Valid(analyzed(q), c, sim.Placement{0, 0, 0, 0, 0}) {
		t.Error("all-on-single-host placement rejected")
	}
	p, err := RandomValid(rand.New(rand.NewSource(1)), analyzed(q), c)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range p {
		if h != 0 {
			t.Fatalf("op %d placed on host %d in a single-host cluster", i, h)
		}
	}
}

// diamondQuery builds the fan-out/fan-in placement-graph shape: two source
// branches (one with an intermediate filter) converging on a join.
func diamondQuery() *stream.Query {
	b := stream.NewBuilder()
	s1 := b.AddSource(100, []stream.DataType{stream.TypeInt})
	f1 := b.AddFilter(stream.FilterGT, stream.TypeInt, 0.5)
	s2 := b.AddSource(100, []stream.DataType{stream.TypeInt})
	j := b.AddJoin(stream.TypeInt, stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowCountBased, Size: 10, Slide: 10}, 0.01)
	k := b.AddSink()
	b.Connect(s1, f1).Connect(f1, j).Connect(s2, j).Connect(j, k)
	return b.MustBuild()
}

// TestValidDiamondRevisit pins the per-upstream acyclicity semantics on
// fan-in: a join may co-locate with an upstream whose flow still sits on
// the host, but not on a host another inbound branch has already left —
// even if a different upstream currently occupies it.
func TestValidDiamondRevisit(t *testing.T) {
	q := diamondQuery() // ops: s1=0 f1=1 s2=2 j=3 k=4
	c := &hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "fog-a", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
		{ID: "fog-b", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
		{ID: "fog-c", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
	}}
	// Branch s1->f1 leaves host 0; s2 sits on host 0. Joining on host 0
	// returns s1's flow to a host it already left: invalid, even though
	// the join would co-locate with its immediate upstream s2.
	if Valid(analyzed(q), checked(c), sim.Placement{0, 1, 0, 0, 0}) {
		t.Error("join revisiting a host one branch already left was accepted")
	}
	// Joining on f1's host is plain co-location for that branch and a
	// first visit for s2's branch: valid.
	if !Valid(analyzed(q), checked(c), sim.Placement{0, 1, 2, 1, 1}) {
		t.Error("valid fan-in co-location rejected")
	}
	// Joining on a fresh host is always fine.
	if !Valid(analyzed(q), checked(c), sim.Placement{0, 1, 0, 2, 2}) {
		t.Error("fan-in onto a fresh host rejected")
	}
	// The generator must never emit placements Valid rejects (regression:
	// the original draw code allowed the first case above).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		p, err := RandomValid(rng, analyzed(q), checked(c))
		if err != nil {
			t.Fatal(err)
		}
		if !Valid(analyzed(q), checked(c), p) {
			t.Fatalf("draw %d: RandomValid produced invalid placement %v", i, p)
		}
	}
}

// TestValidCapabilityBinBoundaries: the monotonicity rule compares bins,
// not raw capability. A strong edge host (more CPU than a weak fog host,
// capability score just under the bin threshold) may feed the weak fog
// host, but never the reverse; within one bin both directions are fine.
func TestValidCapabilityBinBoundaries(t *testing.T) {
	strongEdge := &hardware.Host{ID: "strong-edge", CPU: 400, RAMMB: 1000, NetLatencyMS: 40, NetBandwidthMbps: 100}
	weakFog := &hardware.Host{ID: "weak-fog", CPU: 200, RAMMB: 8000, NetLatencyMS: 20, NetBandwidthMbps: 200}
	weakFog2 := &hardware.Host{ID: "weak-fog-2", CPU: 200, RAMMB: 8000, NetLatencyMS: 20, NetBandwidthMbps: 200}
	if got := hardware.Classify(strongEdge); got != hardware.BinEdge {
		t.Fatalf("strong-edge classified as %v (score %.3f), want edge", got, strongEdge.CapabilityScore())
	}
	if got := hardware.Classify(weakFog); got != hardware.BinFog {
		t.Fatalf("weak-fog classified as %v (score %.3f), want fog", got, weakFog.CapabilityScore())
	}
	b := stream.NewBuilder()
	s := b.AddSource(100, []stream.DataType{stream.TypeInt})
	f := b.AddFilter(stream.FilterGT, stream.TypeInt, 0.5)
	k := b.AddSink()
	b.Chain(s, f, k)
	q := b.MustBuild()

	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongEdge, weakFog, weakFog2}})
	if !Valid(analyzed(q), c, sim.Placement{0, 1, 1}) {
		t.Error("edge -> fog transition rejected at the bin boundary")
	}
	if Valid(analyzed(q), c, sim.Placement{1, 0, 0}) {
		t.Error("fog -> edge transition accepted despite the bin decrease")
	}
	// Same bin both ways: capability within a bin may go "down".
	if !Valid(analyzed(q), c, sim.Placement{1, 2, 2}) || !Valid(analyzed(q), c, sim.Placement{2, 1, 1}) {
		t.Error("same-bin transitions must be allowed in both directions")
	}
}

// TestPredCostsWireBytes pins PredCosts' JSON form: it is the "costs"
// object of every serve response and a deployment's "predicted" object,
// byte for byte what those routes answered when each had its own copy of
// the five fields.
func TestPredCostsWireBytes(t *testing.T) {
	for _, tc := range []struct {
		costs PredCosts
		want  string
	}{
		{PredCosts{ThroughputTPS: 1234.5678, ProcLatencyMS: 1e-7, E2ELatencyMS: 3e21, Success: true},
			`{"throughput_tps":1234.5678,"proc_latency_ms":1e-7,"e2e_latency_ms":3e+21,"success":true,"backpressured":false}`},
		{PredCosts{ProcLatencyMS: 12.75, E2ELatencyMS: 250, Backpressured: true},
			`{"throughput_tps":0,"proc_latency_ms":12.75,"e2e_latency_ms":250,"success":false,"backpressured":true}`},
	} {
		got, err := json.Marshal(tc.costs)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("json.Marshal(%+v) =\n%s, want\n%s", tc.costs, got, tc.want)
		}
	}
}
