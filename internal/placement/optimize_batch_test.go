package placement

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// indexedPredictor predicts costs[p[0]] for placement p and fails the
// candidates failAt marks, so tests can stage arbitrary score landscapes
// over fakeCandidates.
func indexedPredictor(costs []PredCosts, failAt map[int]bool) Predictor {
	return PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (PredCosts, error) {
		if failAt[p[0]] {
			return PredCosts{}, fmt.Errorf("fake failure at candidate %d", p[0])
		}
		return costs[p[0]], nil
	})
}

// fakeCandidates returns n placements whose first entry encodes their
// index (the test predictors key off it).
func fakeCandidates(n int) []sim.Placement {
	out := make([]sim.Placement, n)
	for i := range out {
		out[i] = sim.Placement{i, 0, 0, 0, 0}
	}
	return out
}

func sanely(lat float64) PredCosts {
	return PredCosts{ProcLatencyMS: lat, ThroughputTPS: 1 / lat, E2ELatencyMS: lat * 2, Success: true}
}

// TestOptimizeDeterministicAcrossWorkers is the core determinism
// guarantee of the scoring engine: the same candidates yield identical
// costs and errors, in candidate order, no matter how many workers score
// them — for every objective's read set and for whole vectors.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	const n = 37
	var costs []PredCosts
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		pc := sanely(1 + rng.Float64()*100)
		if i%5 == 0 {
			pc.Backpressured = true
		}
		if i%7 == 0 {
			pc.Success = false
		}
		costs = append(costs, pc)
	}
	pred := indexedPredictor(costs, map[int]bool{3: true, 20: true})
	cands := fakeCandidates(n)

	for _, need := range []CostSet{MinProcLatency.Reads(), MinE2ELatency.Reads(), MaxThroughput.Reads(), AllCosts} {
		base, baseErrs := Score(context.Background(), pred, a, c, cands, need)
		for i := range cands {
			var want PredCosts
			if baseErrs[i] == nil {
				need.Copy(&want, costs[i])
			}
			if base[i] != want || (baseErrs[i] != nil) != (i == 3 || i == 20) {
				t.Fatalf("need=%05b candidate %d: %+v, %v", need, i, base[i], baseErrs[i])
			}
		}
		for _, workers := range []int{2, 3, 8, 64} {
			got, errs := scorePooled(context.Background(), pred, a, c, cands, need, workers)
			if !reflect.DeepEqual(base, got) || !reflect.DeepEqual(baseErrs, errs) {
				t.Errorf("need=%05b: workers=%d scored %+v / %v, serial %+v / %v", need, workers, got, errs, base, baseErrs)
			}
		}
	}
}

// TestOptimizeDeterministicWithOracle repeats the determinism check with
// the real simulator oracle end to end, through a search.
func TestOptimizeDeterministicWithOracle(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 10, 2
	oracle := &SimOracle{Cfg: cfg}
	budget := Budget{MaxCandidates: 12}
	base, err := Search(context.Background(), oracle, a, c, RandomSample{}, MinProcLatency, budget, SearchOptions{Seed: 12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, budget.MaxCandidates} {
		got, err := Search(context.Background(), oracle, a, c, RandomSample{}, MinProcLatency, budget, SearchOptions{Seed: 12, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: %+v != %+v", workers, got, base)
		}
	}
}

// TestOptimizeSkipsFailingCandidates: a failing candidate does not abort
// the search; it is skipped and counted, and never chosen.
func TestOptimizeSkipsFailingCandidates(t *testing.T) {
	q := testQuery()
	c := testCluster()
	sink := q.NumOps() - 1
	failing := func(p sim.Placement) bool { return p[sink] == 3 }
	pred := PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (PredCosts, error) {
		if failing(p) {
			return PredCosts{}, fmt.Errorf("no prediction with the sink on host 3")
		}
		return landscapeCosts(q, c, p), nil
	})
	res, err := Search(context.Background(), pred, analyzed(q), checked(c), Exhaustive{}, MinProcLatency, Budget{MaxCandidates: 4096}, SearchOptions{Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("exhaustive search did not cover the space")
	}
	valid, wantErrored := 0, 0
	forEachValid(q, c, func(p sim.Placement) {
		valid++
		if failing(p) {
			wantErrored++
		}
	})
	if res.Examined != valid || wantErrored == 0 || res.Errored != wantErrored || res.Filtered < res.Errored {
		t.Errorf("examined %d of %d placements, errored %d (want %d), filtered %d",
			res.Examined, valid, res.Errored, wantErrored, res.Filtered)
	}
	if failing(res.Placement) {
		t.Errorf("search chose the failing placement %v", res.Placement)
	}
}

// forEachValid calls fn with every valid placement of q on c.
func forEachValid(q *stream.Query, c *hardware.Cluster, fn func(sim.Placement)) {
	p := make(sim.Placement, q.NumOps())
	var walk func(op int)
	walk = func(op int) {
		if op == len(p) {
			if Valid(analyzed(q), checked(c), p) {
				fn(p)
			}
			return
		}
		for h := range c.Hosts {
			p[op] = h
			walk(op + 1)
		}
	}
	walk(0)
}

// TestOptimizeAllCandidatesFail: only when every candidate errors does a
// search fail, naming the predictor's error; Score reports it for each.
func TestOptimizeAllCandidatesFail(t *testing.T) {
	a := analyzed(testQuery())
	c := checked(testCluster())
	pred := indexedPredictor(nil, map[int]bool{0: true, 1: true, 2: true, 3: true})
	_, err := Search(context.Background(), pred, a, c, RandomSample{}, MinProcLatency, Budget{MaxCandidates: 8}, SearchOptions{Seed: 1, Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "fake failure") {
		t.Fatalf("search over failing candidates: err = %v", err)
	}
	_, errs := Score(context.Background(), pred, a, c, fakeCandidates(2), AllCosts)
	for i, err := range errs {
		if err == nil {
			t.Errorf("candidate %d scored without error", i)
		}
	}
}
