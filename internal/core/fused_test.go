package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"costream/internal/gnn"
	"costream/internal/placement"
	"costream/internal/sim"
)

// randomPredictor builds a full five-metric predictor from seeded GNNs
// (see randomEnsemble): real weights and featurization without the
// minutes of training.
func randomPredictor(t testing.TB, k int) *Predictor {
	return &Predictor{
		Throughput:   randomEnsemble(t, MetricThroughput, k, false),
		ProcLatency:  randomEnsemble(t, MetricProcLatency, k, false),
		E2ELatency:   randomEnsemble(t, MetricE2ELatency, k, false),
		Backpressure: randomEnsemble(t, MetricBackpressure, k, false),
		Success:      randomEnsemble(t, MetricSuccess, k, false),
	}
}

var fusedTileSizes = []int{1, 7, 32}

// TestScoreTileMatchesPredictPlacement is the fused-round equivalence
// guarantee: scoring a whole round through ScoreTile must reproduce the
// per-candidate PredictPlacement float64 outputs bit for bit, at every
// tile size — so how a round is tiled can never change a search result.
func TestScoreTileMatchesPredictPlacement(t *testing.T) {
	pr := randomPredictor(t, 3)
	c := testCorpus(t)
	rng := rand.New(rand.NewSource(91))
	tr := c.Traces[2]
	cands := placement.Enumerate(rng, tr.Query, tr.Cluster, 37)
	if len(cands) < 3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	want := make([]placement.PredCosts, len(cands))
	for i, p := range cands {
		single, err := pr.PredictPlacement(tr.Query, tr.Cluster, p)
		if err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		want[i] = single
	}
	sess, err := pr.NewTileSession(tr.Query, tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.fused) != 5 || len(sess.slow) != 0 {
		t.Fatalf("fused=%d slow=%d slots; want all five fused", len(sess.fused), len(sess.slow))
	}
	for _, tile := range append(fusedTileSizes, len(cands)) {
		sess.SetTileSize(tile)
		got := make([]placement.PredCosts, len(cands))
		for lo := 0; lo < len(cands); lo += tile {
			hi := min(lo+tile, len(cands))
			if err := sess.ScoreTile(cands[lo:hi], got[lo:hi]); err != nil {
				t.Fatalf("tile=%d at %d: %v", tile, lo, err)
			}
		}
		for i := range cands {
			if got[i] != want[i] {
				t.Fatalf("tile=%d candidate %d: fused %+v != per-candidate %+v", tile, i, got[i], want[i])
			}
		}
	}
}

// TestScoreTileFast32MatchesPerCandidate pins the fused float32 path to
// the per-candidate float32 path bit for bit at every tile size: the PR 6
// q-error drift gate against float64 (TestFast32QErrorDrift) therefore
// bounds the fused fast path too.
func TestScoreTileFast32MatchesPerCandidate(t *testing.T) {
	pr := randomPredictor(t, 3)
	pr.SetFast32(true)
	c := testCorpus(t)
	rng := rand.New(rand.NewSource(92))
	tr := c.Traces[4]
	cands := placement.Enumerate(rng, tr.Query, tr.Cluster, 33)
	want := make([]placement.PredCosts, len(cands))
	for i, p := range cands {
		single, err := pr.PredictPlacement(tr.Query, tr.Cluster, p)
		if err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		want[i] = single
	}
	sess, err := pr.NewTileSession(tr.Query, tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range append(fusedTileSizes, len(cands)) {
		sess.SetTileSize(tile)
		got := make([]placement.PredCosts, len(cands))
		for lo := 0; lo < len(cands); lo += tile {
			hi := min(lo+tile, len(cands))
			if err := sess.ScoreTile(cands[lo:hi], got[lo:hi]); err != nil {
				t.Fatalf("tile=%d at %d: %v", tile, lo, err)
			}
		}
		for i := range cands {
			if got[i] != want[i] {
				t.Fatalf("tile=%d candidate %d: fused32 %+v != per-candidate32 %+v", tile, i, got[i], want[i])
			}
		}
	}
}

// TestScoreTileUnstackableFallback checks a mixed predictor: traditional
// (unstackable) ensembles score per candidate inside the tile, stackable
// ones fuse, and the merged costs still match PredictPlacement exactly.
func TestScoreTileUnstackableFallback(t *testing.T) {
	pr := randomPredictor(t, 2)
	pr.ProcLatency = randomEnsemble(t, MetricProcLatency, 2, true)
	pr.Success = randomEnsemble(t, MetricSuccess, 2, true)
	c := testCorpus(t)
	rng := rand.New(rand.NewSource(93))
	tr := c.Traces[1]
	cands := placement.Enumerate(rng, tr.Query, tr.Cluster, 9)
	sess, err := pr.NewTileSession(tr.Query, tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.fused) != 3 || len(sess.slow) != 2 {
		t.Fatalf("fused=%d slow=%d slots; want 3 fused + 2 slow", len(sess.fused), len(sess.slow))
	}
	got := make([]placement.PredCosts, len(cands))
	if err := sess.ScoreTile(cands, got); err != nil {
		t.Fatal(err)
	}
	for i, p := range cands {
		single, err := pr.PredictPlacement(tr.Query, tr.Cluster, p)
		if err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		if got[i] != single {
			t.Fatalf("candidate %d: mixed tile %+v != per-candidate %+v", i, got[i], single)
		}
	}
}

// TestScoreTileRejectsNonFiniteOutput: one NaN weight in one member must
// surface as an error naming the metric and the member — from a single
// prediction (C = 1), from a search tile (C = 7) and from an unstackable
// ensemble's per-member path — instead of being averaged into a cost.
func TestScoreTileRejectsNonFiniteOutput(t *testing.T) {
	c := testCorpus(t)
	tr := c.Traces[1]
	cands := placement.Enumerate(rand.New(rand.NewSource(94)), tr.Query, tr.Cluster, 7)
	if len(cands) != 7 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for _, traditional := range []bool{false, true} {
		pr := randomPredictor(t, 3)
		pr.E2ELatency = randomEnsemble(t, MetricE2ELatency, 3, traditional)
		params, _ := pr.E2ELatency.Models[1].Net.Params()
		readoutBias := params[len(params)-1]
		readoutBias[0] = math.NaN()
		want := "non-finite output for " + MetricE2ELatency.String() + ", member 1"

		sess, err := pr.NewTileSession(tr.Query, tr.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		if slow := len(sess.slow); (slow == 1) != traditional {
			t.Fatalf("traditional=%v: %d slow slots", traditional, slow)
		}
		for _, n := range []int{1, len(cands)} {
			err := sess.ScoreTile(cands[:n], make([]placement.PredCosts, n))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("traditional=%v C=%d: err = %v, want %q", traditional, n, err, want)
			}
		}
		if _, err := pr.PredictPlacement(tr.Query, tr.Cluster, cands[0]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("traditional=%v PredictPlacement: err = %v, want %q", traditional, err, want)
		}
	}
}

// TestScoreTileConcurrent hammers one session from many goroutines (the
// search workers' access pattern) — run under -race in CI — and checks
// every worker sees the same bit-identical results.
func TestScoreTileConcurrent(t *testing.T) {
	pr := randomPredictor(t, 2)
	c := testCorpus(t)
	rng := rand.New(rand.NewSource(94))
	tr := c.Traces[0]
	cands := placement.Enumerate(rng, tr.Query, tr.Cluster, 24)
	sess, err := pr.NewTileSession(tr.Query, tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]placement.PredCosts, len(cands))
	if err := sess.ScoreTile(cands, want); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	outs := make([][]placement.PredCosts, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]placement.PredCosts, len(cands))
			for iter := 0; iter < 6; iter++ {
				tile := 1 + (w+iter)%8
				for lo := 0; lo < len(cands); lo += tile {
					hi := min(lo+tile, len(cands))
					if err := sess.ScoreTile(cands[lo:hi], out[lo:hi]); err != nil {
						errs[w] = err
						return
					}
				}
			}
			outs[w] = out
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range cands {
			if outs[w][i] != want[i] {
				t.Fatalf("worker %d candidate %d: %+v != %+v", w, i, outs[w][i], want[i])
			}
		}
	}
}

// TestOptimizeDeterministicAcrossWorkers runs the full tiled search
// round at several worker counts: the chosen placement, its costs and
// the filter counters must not depend on scheduling.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	pr := randomPredictor(t, 2)
	c := testCorpus(t)
	rng := rand.New(rand.NewSource(95))
	tr := c.Traces[3]
	cands := placement.Enumerate(rng, tr.Query, tr.Cluster, 48)
	var want *placement.Result
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := placement.OptimizeOpts(pr, tr.Query, tr.Cluster, cands, placement.MinProcLatency,
			placement.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if got.Index != want.Index || got.Costs != want.Costs ||
			got.Filtered != want.Filtered || got.Errored != want.Errored {
			t.Fatalf("workers=%d: result %+v != workers=1 result %+v", workers, got, want)
		}
	}
}

// tileRowCounts reads costream_inference_tile_rows_total as
// {computed, requested} per phase (host, placed, flow).
func tileRowCounts() (n [3][2]int64) {
	for i, rows := range inferMet().tileRows {
		n[i] = [2]int64{rows.computed.Value(), rows.requested.Value()}
	}
	return n
}

// TestTileRowsShared pins how many kernel rows two searches compute for
// the rows their candidates request (counted once per metric ensemble,
// five here): exact numbers at a fixed seed and one worker, so a change
// that silently breaks the sharing inside a tile — say, a featurizer that
// hands every candidate its own host arrays — fails here instead of only
// getting slower. A single prediction has nothing to share.
func TestTileRowsShared(t *testing.T) {
	pr := randomPredictor(t, 3)
	tr := testCorpus(t).Traces[2] // 5 operators on 5 hosts
	for _, tc := range []struct {
		strat placement.Strategy
		want  [3][2]int64
	}{
		{placement.Exhaustive{}, [3][2]int64{{210, 975}, {390, 1600}, {665, 1280}}},
		{placement.LocalSearch{}, [3][2]int64{{570, 1000}, {890, 1600}, {1060, 1280}}},
	} {
		before := tileRowCounts()
		res, err := placement.Search(pr, tr.Query, tr.Cluster, tc.strat, placement.MinProcLatency,
			placement.Budget{MaxCandidates: 64}, placement.SearchOptions{Seed: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := tileRowCounts()
		for i := range got {
			got[i][0] -= before[i][0]
			got[i][1] -= before[i][1]
		}
		if res.Examined != 64 || got != tc.want {
			t.Fatalf("%s: %d candidates, {computed, requested} rows per phase %v, want 64 and %v",
				tc.strat.Name(), res.Examined, got, tc.want)
		}
	}
	before := tileRowCounts()
	if _, err := pr.PredictPlacement(tr.Query, tr.Cluster, tr.Placement); err != nil {
		t.Fatal(err)
	}
	for i, n := range tileRowCounts() {
		if computed, requested := n[0]-before[i][0], n[1]-before[i][1]; computed != requested || requested == 0 {
			t.Fatalf("single prediction, phase %d: %d rows computed for %d requested", i, computed, requested)
		}
	}
}

// TestScoreTileIsolatesInvalidCandidate: a tile containing an invalid
// placement errors as a whole, and the placement layer's per-candidate
// fallback isolates it — valid candidates still score, identically to
// the per-candidate path.
func TestScoreTileIsolatesInvalidCandidate(t *testing.T) {
	pr := randomPredictor(t, 2)
	c := testCorpus(t)
	rng := rand.New(rand.NewSource(96))
	tr := c.Traces[5]
	cands := placement.Enumerate(rng, tr.Query, tr.Cluster, 10)
	bad := make(sim.Placement, len(tr.Placement))
	for i := range bad {
		bad[i] = len(tr.Cluster.Hosts) + 7
	}
	cands[4] = bad
	sess, err := pr.NewTileSession(tr.Query, tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]placement.PredCosts, len(cands))
	if err := sess.ScoreTile(cands, out); err == nil {
		t.Fatal("tile with invalid candidate scored without error")
	}
	res, err := placement.OptimizeOpts(pr, tr.Query, tr.Cluster, cands, placement.MinProcLatency,
		placement.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errored != 1 {
		t.Fatalf("errored=%d, want exactly the invalid candidate", res.Errored)
	}
	if res.Index == 4 {
		t.Fatal("optimizer chose the invalid candidate")
	}
}

// TestScoreTileRespectsCancellation: a context cancelled before the
// search starts stops tile claiming — the tiled round reports the
// cancellation instead of scoring.
func TestScoreTileRespectsCancellation(t *testing.T) {
	pr := randomPredictor(t, 2)
	c := testCorpus(t)
	tr := c.Traces[6]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := placement.SearchCtx(ctx, pr, tr.Query, tr.Cluster, placement.RandomSample{},
		placement.MinProcLatency, placement.Budget{MaxCandidates: 32},
		placement.SearchOptions{Seed: 1, Workers: 2})
	if err == nil {
		t.Fatal("cancelled search scored successfully")
	}
}

// TestBuildGraphIntoAllocs pins the pooled candidate-graph assembly:
// steady-state buildGraphInto reuses the shell's node and edge storage
// and allocates nothing.
func TestBuildGraphIntoAllocs(t *testing.T) {
	c := testCorpus(t)
	tr := c.Traces[0]
	f := Featurizer{Mode: FeatFull}
	bf, err := f.NewBatch(tr.Query, tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(98))
	cands := placement.Enumerate(rng, tr.Query, tr.Cluster, 8)
	var shell gnn.Graph
	var hostSlot []int
	for _, p := range cands {
		if err := bf.buildGraphInto(p, &shell, &hostSlot); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range cands {
			if err := bf.buildGraphInto(p, &shell, &hostSlot); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state buildGraphInto allocates %.1f times per %d candidates, want 0", allocs, len(cands))
	}
}
