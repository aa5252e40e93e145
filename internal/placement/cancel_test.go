package placement

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// gatedPredictor scores like landscapePredictor but cancels the attached
// context from inside its limit-th prediction, modeling a client that
// disconnects mid-search. Its sessions are the PredictorFunc adapter's,
// one candidate per tile, so the scorer walks candidates one by one.
type gatedPredictor struct {
	mu     sync.Mutex
	scored []sim.Placement
	limit  int
	cancel context.CancelFunc
}

func (g *gatedPredictor) NewScoreSession(q *stream.Analysis, c hardware.Checked) (TileScorer, error) {
	return PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (PredCosts, error) {
		g.mu.Lock()
		g.scored = append(g.scored, append(sim.Placement(nil), p...))
		if len(g.scored) == g.limit {
			g.cancel()
		}
		g.mu.Unlock()
		return landscapeCosts(q, c, p), nil
	}).NewScoreSession(q, c)
}

func (g *gatedPredictor) calls() []sim.Placement {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.scored
}

// TestSearchCtxCancelMidSearch cancels the context from inside the fifth
// prediction and asserts the search returns early with the partial
// incumbent: no candidate is scored after the cancellation — the one
// prediction that follows completes the incumbent's costs — the result is
// flagged Cancelled, and the chosen placement is one of the candidates
// scored before the cut.
func TestSearchCtxCancelMidSearch(t *testing.T) {
	q := testQuery()
	c := checked(cluster12())
	for _, strat := range []Strategy{RandomSample{}, LocalSearch{}} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		pred := &gatedPredictor{limit: 5, cancel: cancel}
		budget := Budget{MaxCandidates: 256}
		res, err := Search(ctx, pred, analyzed(q), c, strat, MinProcLatency, budget, SearchOptions{Seed: 3, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if !res.Cancelled {
			t.Errorf("%s: result not flagged Cancelled", strat.Name())
		}
		calls := pred.calls()
		if len(calls) != pred.limit+1 || !reflect.DeepEqual(calls[pred.limit], res.Placement) {
			t.Errorf("%s: %d predictions ran, want %d candidates and the incumbent's completion", strat.Name(), len(calls), pred.limit)
		}
		if res.Index >= pred.limit {
			t.Errorf("%s: incumbent index %d not among the %d scored before cancellation", strat.Name(), res.Index, pred.limit)
		}
		if len(res.Placement) != q.NumOps() {
			t.Errorf("%s: no partial incumbent returned: %+v", strat.Name(), res)
		}
	}
}

// TestSearchCtxPreCancelled: a context cancelled before the search starts
// yields an error wrapping context.Canceled — there is no incumbent to
// fall back to.
func TestSearchCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range allStrategies(t) {
		_, err := Search(ctx, landscapePredictor{}, analyzed(testQuery()), checked(cluster12()), strat, MinProcLatency, Budget{MaxCandidates: 32}, SearchOptions{Seed: 1})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", strat.Name(), err)
		}
	}
}

// TestSearchCtxBackgroundMatchesSearch: a search under a live context
// that is never cancelled is byte-for-byte the search under
// context.Background(): checking the context changes nothing it chooses.
func TestSearchCtxBackgroundMatchesSearch(t *testing.T) {
	q := testQuery()
	c := checked(cluster12())
	opts := SearchOptions{Seed: 7, Workers: 2}
	budget := Budget{MaxCandidates: 32}
	a, err := Search(context.Background(), landscapePredictor{}, analyzed(q), c, Beam{}, MinProcLatency, budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := Search(ctx, landscapePredictor{}, analyzed(q), c, Beam{}, MinProcLatency, budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Search(live ctx) %+v != Search(background) %+v", b, a)
	}
}

// TestWarmStartScoresIncumbentFirst: with a one-candidate budget the
// warm-started search can only examine the incumbent, so the result must
// be exactly the incumbent.
func TestWarmStartScoresIncumbentFirst(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(cluster12())
	inc, err := RandomValid(rand.New(rand.NewSource(11)), a, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(context.Background(), landscapePredictor{}, a, c, WarmStart{Incumbent: inc}, MinProcLatency, Budget{MaxCandidates: 1}, SearchOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Placement, inc) {
		t.Errorf("budget-1 warm start chose %v, want incumbent %v", res.Placement, inc)
	}
	if res.Index != 0 {
		t.Errorf("incumbent scored at index %d, want 0", res.Index)
	}
}

// TestWarmStartNeverWorseThanIncumbent: whatever the search finds, its
// score is never worse than the incumbent's own predicted score, and the
// run is deterministic across worker counts.
func TestWarmStartNeverWorseThanIncumbent(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(cluster12())
	inc, err := RandomValid(rand.New(rand.NewSource(4)), a, c)
	if err != nil {
		t.Fatal(err)
	}
	incScore := MinProcLatency.Score(landscapeCosts(a, c, inc))
	strat := WarmStart{Incumbent: inc, Inner: LocalSearch{}}
	base, err := Search(context.Background(), landscapePredictor{}, a, c, strat, MinProcLatency, Budget{MaxCandidates: 48}, SearchOptions{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := MinProcLatency.Score(base.Costs); got > incScore {
		t.Errorf("warm-started search score %.3f worse than incumbent %.3f", got, incScore)
	}
	for _, workers := range []int{2, 8} {
		got, err := Search(context.Background(), landscapePredictor{}, a, c, strat, MinProcLatency, Budget{MaxCandidates: 48}, SearchOptions{Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d warm-start result %+v != serial %+v", workers, got, base)
		}
	}
}

// TestWarmStartInvalidIncumbent: an incumbent that violates the placement
// rules (or is empty) degrades to the plain inner strategy instead of
// failing.
func TestWarmStartInvalidIncumbent(t *testing.T) {
	q := testQuery()
	c := checked(cluster12())
	bad := make(sim.Placement, q.NumOps())
	for i := range bad {
		bad[i] = -1
	}
	for _, inc := range []sim.Placement{nil, bad} {
		res, err := Search(context.Background(), landscapePredictor{}, analyzed(q), c, WarmStart{Incumbent: inc}, MinProcLatency, Budget{MaxCandidates: 16}, SearchOptions{Seed: 8})
		if err != nil {
			t.Fatalf("incumbent %v: %v", inc, err)
		}
		if len(res.Placement) != q.NumOps() {
			t.Errorf("incumbent %v: no placement found", inc)
		}
	}
}

func TestHysteresis(t *testing.T) {
	h := Hysteresis{MinImprovement: 0.10, CooldownS: 30}
	cases := []struct {
		name                 string
		inc, chal, now, last float64
		want                 bool
	}{
		{"clear improvement", 100, 80, 100, -1, true},
		{"below threshold", 100, 95, 100, -1, false},
		{"exactly at threshold", 100, 90, 100, -1, true},
		{"no improvement", 100, 100, 100, -1, false},
		{"worse challenger", 100, 120, 100, -1, false},
		{"cooldown active", 100, 50, 100, 80, false},
		{"cooldown elapsed", 100, 50, 100, 60, true},
		{"negative scores (throughput)", -1000, -1200, 100, -1, true},
		{"negative scores below threshold", -1000, -1050, 100, -1, false},
	}
	for _, tc := range cases {
		got, reason := h.ShouldMigrate(tc.inc, tc.chal, tc.now, tc.last)
		if got != tc.want {
			t.Errorf("%s: ShouldMigrate(%v, %v, now=%v, last=%v) = %v (%s), want %v",
				tc.name, tc.inc, tc.chal, tc.now, tc.last, got, reason, tc.want)
		}
		if !got && reason == "" {
			t.Errorf("%s: suppressed migration must carry a reason", tc.name)
		}
	}
	free := Hysteresis{}
	if ok, _ := free.ShouldMigrate(100, 99.9, 0, -1); !ok {
		t.Error("zero-valued hysteresis must accept any strict improvement")
	}
	if ok, reason := free.ShouldMigrate(100, 100, 0, -1); ok {
		t.Errorf("zero-valued hysteresis accepted a non-improvement (%s)", reason)
	}
}

func TestParseObjective(t *testing.T) {
	for name, want := range map[string]Objective{
		"":                       MinProcLatency,
		"min-processing-latency": MinProcLatency,
		"min-e2e-latency":        MinE2ELatency,
		"max-throughput":         MaxThroughput,
		"throughput":             MaxThroughput,
	} {
		got, err := ParseObjective(name)
		if err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseObjective("bogus"); err == nil {
		t.Error("ParseObjective(bogus) succeeded")
	}
}
