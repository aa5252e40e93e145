package placement

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
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
	// A round's result is the core's, overwritten by the next round.
	first := slices.Clone(co.ScoreRound(cands))
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
// nothing (its result slice is the core's), and a skipped candidate's
// record holds the caller's placement.
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
	if allocs != 0 {
		t.Errorf("a round of %d skipped candidates allocates %v objects, want 0", len(past), allocs)
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

// TestCandIndexDistinguishesPlacements: every placement entered into the
// dedup index is found at its own index, and distinct placements never
// match, including hosts beyond one byte and placements of another
// length.
func TestCandIndexDistinguishesPlacements(t *testing.T) {
	ps := []sim.Placement{
		{0, 1}, {1, 0}, {0, 0}, {1, 1},
		{130, 5}, {5, 130}, {2, 133}, {133, 2},
		{128, 0}, {0, 128}, {0}, {0, 0, 0}, {},
	}
	x := newCandIndex(len(ps))
	var kept []sim.Placement
	for i, p := range ps {
		j, slot := x.lookup(kept, p)
		if j >= 0 {
			t.Fatalf("placement %v matches %v before it was entered", p, kept[j])
		}
		x.add(slot, i)
		kept = append(kept, p)
	}
	for i, p := range ps {
		if j, _ := x.lookup(kept, slices.Clone(p)); j != i {
			t.Errorf("placement %v found at %d, want %d", p, j, i)
		}
	}
	if j, _ := x.lookup(kept, sim.Placement{1, 2}); j >= 0 {
		t.Errorf("placement never entered found at %d", j)
	}
}

// TestScoreRoundAllocsIndependentOfCandidates: on a warm core, a round of
// 32 fresh candidates allocates as often as a round of one. What a search
// keeps of a candidate is cut from storage made with the core, and a
// round's buffers are the core's. The scoring runs on the caller's
// goroutine (one worker), which the pool would leave for more than one
// tile.
func TestScoreRoundAllocsIndependentOfCandidates(t *testing.T) {
	const rounds = 21 // AllocsPerRun's warm-up plus 20
	a := analyzed(testQuery())
	c := checked(cluster12())
	n, hosts := a.Query().NumOps(), len(c.Cluster().Hosts)
	var fresh []sim.Placement // distinct placements: the base-hosts digits of i
	for i := range rounds * 33 {
		p := make(sim.Placement, n)
		for v, r := 0, i; v < n; v, r = v+1, r/hosts {
			p[v] = r % hosts
		}
		fresh = append(fresh, p)
	}
	co := newCore(context.Background(), landscapePredictor{}, a, c, MinProcLatency,
		Budget{MaxCandidates: len(fresh) + 32}, SearchOptions{Seed: 1, Workers: 1})
	co.ScoreRound([]sim.Placement{{0, 0, 0, 0, 1}, {0, 0, 0, 0, 2}}) // opens the session
	next := func(k int) []sim.Placement {
		round := fresh[:k]
		fresh = fresh[k:]
		return round
	}
	var out []Scored
	wide := testing.AllocsPerRun(rounds-1, func() { out = co.ScoreRound(next(32)) })
	for i, s := range out {
		if s.Skipped || s.Err != nil {
			t.Fatalf("candidate %d of the last wide round: skipped %v, error %v", i, s.Skipped, s.Err)
		}
	}
	one := testing.AllocsPerRun(rounds-1, func() { out = co.ScoreRound(next(1)) })
	if out[0].Skipped || out[0].Err != nil {
		t.Fatalf("last round of one: skipped %v, error %v", out[0].Skipped, out[0].Err)
	}
	if wide != one {
		t.Errorf("a round of 32 fresh candidates allocates %v objects, a round of one %v", wide, one)
	}
	if co.Examined() != 2+rounds*33 {
		t.Errorf("examined %d candidates, want %d", co.Examined(), 2+rounds*33)
	}
}
