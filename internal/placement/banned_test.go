package placement

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// recordingPredictor wraps the landscape predictor and records every
// placement it is asked to score; the mutex keeps it -race clean under
// parallel scoring workers.
type recordingPredictor struct {
	mu     sync.Mutex
	scored []sim.Placement
}

func (r *recordingPredictor) record(p sim.Placement) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scored = append(r.scored, append(sim.Placement(nil), p...))
}

func (r *recordingPredictor) NewScoreSession(q *stream.Analysis, c hardware.Checked) (TileScorer, error) {
	return PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (PredCosts, error) {
		r.record(p)
		return landscapeCosts(q, c, p), nil
	}).NewScoreSession(q, c)
}

// TestBannedHostsNeverScored is the cordon guarantee: with BannedHosts
// set, no strategy ever scores (let alone returns) a placement touching a
// banned host — the ban is enforced at the candidate-generation
// substrate, not filtered after the fact. Run with -race this also checks
// the banned bitset is safe under parallel scoring.
func TestBannedHostsNeverScored(t *testing.T) {
	q := testQuery()
	c := checked(cluster12())
	banned := []int{0, 3, 6} // an edge, a strong edge, a fog node
	isBanned := map[int]bool{}
	for _, b := range banned {
		isBanned[b] = true
	}
	strategies := allStrategies(t)
	// WarmStart with an incumbent ON a banned host: the incumbent must be
	// rejected by validation, degrading to the inner strategy.
	inc, err := RandomValid(rand.New(rand.NewSource(41)), analyzed(q), c)
	if err != nil {
		t.Fatal(err)
	}
	inc[0] = 0 // force the incumbent onto banned host 0
	strategies = append(strategies, WarmStart{Incumbent: inc})

	for _, strat := range strategies {
		for _, workers := range []int{1, 4} {
			pred := &recordingPredictor{}
			res, err := Search(context.Background(), pred, analyzed(q), c, strat, MinProcLatency, Budget{MaxCandidates: 48},
				SearchOptions{Seed: 9, Workers: workers, BannedHosts: banned})
			if err != nil {
				t.Fatalf("%s: %v", strat.Name(), err)
			}
			for _, h := range res.Placement {
				if isBanned[int(h)] {
					t.Errorf("%s: result %v uses banned host %d", strat.Name(), res.Placement, h)
				}
			}
			pred.mu.Lock()
			for _, p := range pred.scored {
				for _, h := range p {
					if isBanned[int(h)] {
						t.Fatalf("%s (workers=%d): scored candidate %v touches banned host %d",
							strat.Name(), workers, p, h)
					}
				}
			}
			n := len(pred.scored)
			pred.mu.Unlock()
			if n == 0 {
				t.Errorf("%s: no candidates scored", strat.Name())
			}
		}
	}
}

// TestBannedHostsAllBannedFails: banning every host leaves no valid
// placement; the search must fail rather than emit a banned candidate.
func TestBannedHostsAllBannedFails(t *testing.T) {
	q := testQuery()
	c := checked(testCluster())
	_, err := Search(context.Background(), landscapePredictor{}, analyzed(q), c, RandomSample{}, MinProcLatency,
		Budget{MaxCandidates: 16}, SearchOptions{Seed: 2, BannedHosts: []int{0, 1, 2, 3}})
	if err == nil {
		t.Fatal("search over a fully banned cluster succeeded")
	}
}

// TestBannedHostsOutOfRangeIgnored: indices outside the cluster are
// ignored rather than corrupting the bitset.
func TestBannedHostsOutOfRangeIgnored(t *testing.T) {
	q := testQuery()
	c := checked(testCluster())
	res, err := Search(context.Background(), landscapePredictor{}, analyzed(q), c, RandomSample{}, MinProcLatency,
		Budget{MaxCandidates: 16}, SearchOptions{Seed: 2, BannedHosts: []int{-1, 99}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placement) != q.NumOps() {
		t.Fatalf("no placement found: %+v", res)
	}
}

// TestHysteresisBoundaries pins the gate's edge semantics: an improvement
// exactly at MinImprovement migrates, and a cooldown that expires exactly
// on the deciding tick (elapsed == CooldownS) no longer suppresses.
func TestHysteresisBoundaries(t *testing.T) {
	h := Hysteresis{MinImprovement: 0.20, CooldownS: 30}
	// incumbent 100 -> challenger 80 is exactly 20% improvement.
	if ok, reason := h.ShouldMigrate(100, 80, 100, -1); !ok {
		t.Errorf("improvement exactly at MinImprovement suppressed: %s", reason)
	}
	// A hair below the threshold is suppressed.
	if ok, _ := h.ShouldMigrate(100, 80.01, 100, -1); ok {
		t.Error("improvement just below MinImprovement accepted")
	}
	// now-last == CooldownS: the cooldown expires on this very tick.
	if ok, reason := h.ShouldMigrate(100, 50, 60, 30); !ok {
		t.Errorf("cooldown expiring on the deciding tick still suppressed: %s", reason)
	}
	// One tick earlier it still suppresses.
	if ok, _ := h.ShouldMigrate(100, 50, 59.9, 30); ok {
		t.Error("active cooldown accepted a migration")
	}
}

// cancelAfterFirstCheck is a context whose Err is nil on its first call
// — the monitor's check before its initial observation — and
// context.Canceled from then on, a deterministic mid-run cancellation.
type cancelAfterFirstCheck struct {
	context.Context
	calls int
}

func (c *cancelAfterFirstCheck) Err() error {
	c.calls++
	if c.calls == 1 {
		return nil
	}
	return context.Canceled
}

func TestOnlineMonitoringPreCancelled(t *testing.T) {
	a, c := analyzed(testQuery()), checked(testCluster())
	initial, err := RandomValid(rand.New(rand.NewSource(7)), a, c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	steps, err := OnlineMonitoring(ctx, a, c, initial, DefaultMonitorConfig(monSimCfg()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if steps != nil {
		t.Fatalf("pre-cancelled monitor returned steps: %v", steps)
	}
}

// TestOnlineMonitoringMidRunPartial mirrors Search's ctx semantics: a
// cancellation after the initial observation stops the loop at the next
// monitoring window and returns the partial trajectory without error.
func TestOnlineMonitoringMidRunPartial(t *testing.T) {
	a, c := analyzed(testQuery()), checked(testCluster())
	initial, err := RandomValid(rand.New(rand.NewSource(7)), a, c)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfterFirstCheck{Context: context.Background()}
	steps, err := OnlineMonitoring(ctx, a, c, initial, DefaultMonitorConfig(monSimCfg()))
	if err != nil {
		t.Fatalf("mid-run cancellation must not fail the monitor: %v", err)
	}
	if len(steps) != 1 {
		t.Fatalf("got %d steps, want only the initial one", len(steps))
	}
	// Sanity: uncancelled, the same run takes more than one step.
	full, err := OnlineMonitoring(context.Background(), a, c, initial, DefaultMonitorConfig(monSimCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= 1 {
		t.Skip("monitor found nothing to do on this landscape; cancellation test still meaningful")
	}
}

// monSimCfg is a short simulator window keeping monitor tests fast.
func monSimCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 10, 2
	return cfg
}
