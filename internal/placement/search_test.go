package placement

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// landscapePredictor is a deterministic predictor with a structured cost
// surface: processing latency is the sum of network latency over the
// query's edges plus a per-operator compute penalty on weak hosts. It
// rewards co-location and strong hosts, so real search strategies can be
// compared against random sampling on exact, reproducible numbers.
type landscapePredictor struct{}

func landscapeCosts(q *stream.Analysis, k hardware.Checked, p sim.Placement) PredCosts {
	c := k.Cluster()
	lat := 0.0
	for _, e := range q.Query().Edges {
		lat += c.LinkLatencyMS(p[e[0]], p[e[1]])
	}
	for _, h := range p {
		lat += 500 / c.Hosts[h].CPU
	}
	return PredCosts{
		ProcLatencyMS: lat,
		E2ELatencyMS:  2 * lat,
		ThroughputTPS: 1e6 / (1 + lat),
		Success:       true,
	}
}

func (landscapePredictor) NewScoreSession(q *stream.Analysis, c hardware.Checked) (TileScorer, error) {
	return PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (PredCosts, error) {
		return landscapeCosts(q, c, p), nil
	}).NewScoreSession(q, c)
}

// cluster12 is a 12-host heterogeneous edge-cloud landscape: six weak
// high-latency edge nodes, four fog nodes and two strong cloud nodes.
func cluster12() *hardware.Cluster {
	c := &hardware.Cluster{}
	add := func(id string, cpu, ram, lat, bw float64) {
		c.Hosts = append(c.Hosts, &hardware.Host{
			ID: id, CPU: cpu, RAMMB: ram, NetLatencyMS: lat, NetBandwidthMbps: bw,
		})
	}
	add("edge-0", 50, 1000, 80, 50)
	add("edge-1", 60, 1000, 70, 50)
	add("edge-2", 80, 2000, 60, 100)
	add("edge-3", 100, 2000, 40, 100)
	add("edge-4", 100, 1000, 90, 25)
	add("edge-5", 120, 2000, 50, 100)
	add("fog-0", 300, 8000, 20, 400)
	add("fog-1", 400, 8000, 10, 800)
	add("fog-2", 400, 16000, 15, 400)
	add("fog-3", 500, 8000, 10, 800)
	add("cloud-0", 800, 32000, 1, 10000)
	add("cloud-1", 700, 24000, 2, 6400)
	return c
}

// allStrategies returns one default-configured instance per built-in
// strategy name.
func allStrategies(t *testing.T) []Strategy {
	t.Helper()
	var out []Strategy
	for _, name := range StrategyNames() {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestSearchDeterministicAcrossWorkers is the engine's core guarantee:
// for every strategy, a fixed seed yields the identical SearchResult no
// matter how many scoring workers run. Under -race this doubles as the
// search engine's data-race check.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(cluster12())
	pred := landscapePredictor{}
	budget := Budget{MaxCandidates: 48}
	for _, strat := range allStrategies(t) {
		base, err := Search(context.Background(), pred, a, c, strat, MinProcLatency, budget, SearchOptions{Seed: 9, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		for _, workers := range []int{2, 5, 16} {
			got, err := Search(context.Background(), pred, a, c, strat, MinProcLatency, budget, SearchOptions{Seed: 9, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", strat.Name(), workers, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s: workers=%d result %+v != serial %+v", strat.Name(), workers, got, base)
			}
		}
	}
}

// TestGuidedSearchBeatsRandom enforces the engine's reason to exist: on a
// 12-host cluster, Beam and LocalSearch must find an equal-or-better
// predicted objective than RandomSample under the same candidate budget.
func TestGuidedSearchBeatsRandom(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(cluster12())
	pred := landscapePredictor{}
	budget := Budget{MaxCandidates: 64}
	for _, seed := range []int64{3, 7, 11, 42} {
		randRes, err := Search(context.Background(), pred, a, c, RandomSample{}, MinProcLatency, budget, SearchOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{Beam{Width: 4}, LocalSearch{}} {
			res, err := Search(context.Background(), pred, a, c, strat, MinProcLatency, budget, SearchOptions{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", strat.Name(), seed, err)
			}
			if res.Examined > budget.MaxCandidates {
				t.Errorf("%s seed=%d: examined %d > budget %d", strat.Name(), seed, res.Examined, budget.MaxCandidates)
			}
			if res.Costs.ProcLatencyMS > randRes.Costs.ProcLatencyMS {
				t.Errorf("%s seed=%d: predicted Lp %.3f worse than random's %.3f",
					strat.Name(), seed, res.Costs.ProcLatencyMS, randRes.Costs.ProcLatencyMS)
			}
		}
	}
}

// TestExhaustiveCompleteIsOptimal: on a small space, Exhaustive covers
// everything, reports Complete, and no other strategy can beat it.
func TestExhaustiveCompleteIsOptimal(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	pred := landscapePredictor{}
	budget := Budget{MaxCandidates: 4096}
	ex, err := Search(context.Background(), pred, a, c, Exhaustive{}, MinProcLatency, budget, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Complete {
		t.Fatalf("exhaustive did not cover the %d-examined space", ex.Examined)
	}
	if !Valid(a, c, ex.Placement) {
		t.Fatalf("exhaustive returned invalid placement %v", ex.Placement)
	}
	for _, strat := range allStrategies(t) {
		res, err := Search(context.Background(), pred, a, c, strat, MinProcLatency, budget, SearchOptions{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if res.Costs.ProcLatencyMS < ex.Costs.ProcLatencyMS-1e-9 {
			t.Errorf("%s beat the complete enumeration: %.4f < %.4f",
				strat.Name(), res.Costs.ProcLatencyMS, ex.Costs.ProcLatencyMS)
		}
	}
}

// TestSearchBudgetEnforced: the candidate and round budgets bound every
// strategy, and exhausted exhaustive runs do not claim completeness.
func TestSearchBudgetEnforced(t *testing.T) {
	q := testQuery()
	c := checked(cluster12())
	pred := landscapePredictor{}
	for _, strat := range allStrategies(t) {
		res, err := Search(context.Background(), pred, analyzed(q), c, strat, MinProcLatency, Budget{MaxCandidates: 5}, SearchOptions{Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if res.Examined > 5 {
			t.Errorf("%s: examined %d > budget 5", strat.Name(), res.Examined)
		}
		if res.Complete {
			t.Errorf("%s: claims complete coverage under a 5-candidate budget", strat.Name())
		}
		res, err = Search(context.Background(), pred, analyzed(q), c, strat, MinProcLatency,
			Budget{MaxCandidates: 256, MaxRounds: 1}, SearchOptions{Seed: 2})
		if err != nil {
			t.Fatalf("%s rounds=1: %v", strat.Name(), err)
		}
		if res.Rounds > 1 {
			t.Errorf("%s: rounds %d > budget 1", strat.Name(), res.Rounds)
		}
	}
}

// TestSearchValidPlacements: every strategy returns a rule-satisfying
// placement on both small and large clusters.
func TestSearchValidPlacements(t *testing.T) {
	q := testQuery()
	pred := landscapePredictor{}
	for _, c := range []*hardware.Cluster{testCluster(), cluster12()} {
		for _, strat := range allStrategies(t) {
			res, err := Search(context.Background(), pred, analyzed(q), checked(c), strat, MinProcLatency, Budget{MaxCandidates: 32}, SearchOptions{Seed: 4})
			if err != nil {
				t.Fatalf("%s: %v", strat.Name(), err)
			}
			if !Valid(analyzed(q), checked(c), res.Placement) {
				t.Errorf("%s: invalid placement %v", strat.Name(), res.Placement)
			}
			if res.Strategy != strat.Name() {
				t.Errorf("result strategy %q != %q", res.Strategy, strat.Name())
			}
		}
	}
}

// insanePredictor predicts failure for every placement, exercising the
// sanity-filter fallback path.
var insanePredictor = PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (PredCosts, error) {
	pc := landscapeCosts(q, c, p)
	pc.Success = false
	return pc, nil
})

// TestSearchFallbackWhenAllInsane: when every candidate fails the sanity
// check, the search still returns the cheapest scored placement.
func TestSearchFallbackWhenAllInsane(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	res, err := Search(context.Background(), insanePredictor, a, c, RandomSample{}, MinProcLatency,
		Budget{MaxCandidates: 8}, SearchOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Filtered != res.Examined {
		t.Errorf("Filtered = %d, want %d (all insane)", res.Filtered, res.Examined)
	}
	if res.Placement == nil {
		t.Fatal("no fallback placement")
	}
}

// TestScoreRoundDedupAndCaching drives the core directly: duplicate
// candidates return cached records without consuming budget or rounds.
func TestScoreRoundDedupAndCaching(t *testing.T) {
	q := testQuery()
	c := testCluster()
	co := newCore(context.Background(), landscapePredictor{}, analyzed(q), checked(c), MinProcLatency, Budget{MaxCandidates: 32}, SearchOptions{Seed: 1})
	cands := enumerate(rand.New(rand.NewSource(1)), q, c, 4)
	if len(cands) < 2 {
		t.Fatalf("want >= 2 candidates, got %d", len(cands))
	}
	first := co.ScoreRound(cands)
	if co.Examined() != len(cands) || co.Rounds() != 1 {
		t.Fatalf("examined=%d rounds=%d after first round", co.Examined(), co.Rounds())
	}
	// Same batch again, plus an intra-round duplicate.
	again := co.ScoreRound(append(append([]sim.Placement{}, cands...), cands[0]))
	if co.Examined() != len(cands) {
		t.Errorf("duplicates consumed budget: examined=%d", co.Examined())
	}
	if co.Rounds() != 1 {
		t.Errorf("cache-only round counted: rounds=%d", co.Rounds())
	}
	for i := range cands {
		if !reflect.DeepEqual(first[i], again[i]) {
			t.Errorf("cached record %d differs", i)
		}
	}
	if !reflect.DeepEqual(again[len(again)-1], first[0]) {
		t.Error("intra-round duplicate not resolved to the cached record")
	}
}

// TestScoreRoundIntraRoundDuplicate: a batch containing the same fresh
// placement twice scores it once and resolves both entries.
func TestScoreRoundIntraRoundDuplicate(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	co := newCore(context.Background(), landscapePredictor{}, a, c, MinProcLatency, Budget{MaxCandidates: 32}, SearchOptions{Seed: 1})
	p := sim.Placement{3, 3, 3, 3, 3}
	out := co.ScoreRound([]sim.Placement{p, p})
	if co.Examined() != 1 {
		t.Fatalf("examined=%d, want 1", co.Examined())
	}
	if !reflect.DeepEqual(out[0], out[1]) {
		t.Errorf("duplicate entries differ: %+v vs %+v", out[0], out[1])
	}
}

// TestScoreRoundSkipsWithoutCopying: a round past the budget allocates
// its result slice and nothing per skipped candidate, whose record holds
// the caller's placement.
func TestScoreRoundSkipsWithoutCopying(t *testing.T) {
	q := testQuery()
	c := testCluster()
	co := newCore(context.Background(), landscapePredictor{}, analyzed(q), checked(c), MinProcLatency, Budget{MaxCandidates: 1}, SearchOptions{Seed: 1})
	cands := enumerate(rand.New(rand.NewSource(1)), q, c, 17)
	if len(cands) < 17 {
		t.Fatalf("want 17 candidates, got %d", len(cands))
	}
	co.ScoreRound(cands[:1])
	past := cands[1:]
	var out []Scored
	allocs := testing.AllocsPerRun(20, func() { out = co.ScoreRound(past) })
	if allocs != 1 {
		t.Errorf("a round of %d skipped candidates allocates %v objects, want 1 (its result)", len(past), allocs)
	}
	for i, s := range out {
		if !s.Skipped || &s.Placement[0] != &past[i][0] {
			t.Fatalf("candidate %d: skipped=%v, placement is the caller's: %v", i, s.Skipped, &s.Placement[0] == &past[i][0])
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("ParseStrategy(%q).Name() = %q", name, s.Name())
		}
	}
	if s, err := ParseStrategy(""); err != nil || s.Name() != "random" {
		t.Errorf("empty name: (%v, %v), want default random", s, err)
	}
	if _, err := ParseStrategy("simulated-bogo"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestPlacementKeyInjective: distinct placements of one query produce
// distinct compact keys, including hosts beyond one varint byte.
func TestPlacementKeyInjective(t *testing.T) {
	ps := []sim.Placement{
		{0, 1}, {1, 0}, {0, 0}, {1, 1},
		{130, 5}, {5, 130}, {2, 133}, {133, 2},
		{128, 0}, {0, 128},
	}
	seen := map[string]int{}
	for i, p := range ps {
		key := string(appendPlacementKey(nil, p))
		if j, ok := seen[key]; ok {
			t.Errorf("placements %v and %v collide", ps[j], p)
		}
		seen[key] = i
	}
}
