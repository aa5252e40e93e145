package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/obs"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// randomPredictor builds a full five-metric predictor from seeded GNNs
// (see randomEnsemble): real weights and featurization without the
// minutes of training.
func randomPredictor(t testing.TB, k int) *Predictor {
	var pr Predictor
	for _, m := range AllMetrics() {
		pr[m] = randomEnsemble(t, m, k, false)
	}
	return &pr
}

// distinctPredictor is randomPredictor with every metric's networks
// seeded differently: no two cost fields agree by construction, and on
// the corpus's queries the sanity check passes some candidates and drops
// others — what a test of which field is which, or of a search's
// choice, needs.
func distinctPredictor(t testing.TB, k int) *Predictor {
	var pr Predictor
	for _, m := range AllMetrics() {
		pr[m] = seededEnsemble(t, m, k, false, 900+10*int64(m))
	}
	return &pr
}

var fusedTileSizes = []int{1, 7, 32}

// TestScoreTileMatchesPredictPlacement is the fused-round equivalence
// guarantee: scoring a whole round through ScoreTile must reproduce the
// per-candidate placement.PredictOne float64 outputs bit for bit, at every
// tile size — so how a round is tiled can never change a search result.
func TestScoreTileMatchesPredictPlacement(t *testing.T) {
	pr := distinctPredictor(t, 3)
	c := testCorpus(t)
	rng := rand.New(rand.NewSource(91))
	tr := c.Traces[2]
	cands := enumerate(rng, tr.Query, tr.Cluster, 37)
	if len(cands) < 3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	want := make([]placement.PredCosts, len(cands))
	for i, p := range cands {
		single, err := placement.PredictOne(pr, analyzed(tr.Query), checked(tr.Cluster), p)
		if err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		want[i] = single
	}
	sess, err := newTileSession(pr.ensembles(), analyzed(tr.Query), tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.fused) != 5 {
		t.Fatalf("fused=%d slots; want all five fused", len(sess.fused))
	}
	for _, tile := range append(fusedTileSizes, len(cands)) {
		got := make([]placement.PredCosts, len(cands))
		for lo := 0; lo < len(cands); lo += tile {
			hi := min(lo+tile, len(cands))
			if err := sess.ScoreTile(cands[lo:hi], placement.AllCosts, got[lo:hi]); err != nil {
				t.Fatalf("tile=%d at %d: %v", tile, lo, err)
			}
		}
		for i := range cands {
			if got[i] != want[i] {
				t.Fatalf("tile=%d candidate %d: fused %+v != per-candidate %+v", tile, i, got[i], want[i])
			}
		}
	}

	// Every non-empty need: the named fields hold the full prediction's
	// values, the others still hold what the caller left there (a value no
	// prediction of the candidate produces).
	for need := placement.CostSet(1); need <= placement.AllCosts; need++ {
		got := make([]placement.PredCosts, len(cands))
		expect := make([]placement.PredCosts, len(cands))
		for i := range cands {
			got[i] = placement.PredCosts{ThroughputTPS: -1, ProcLatencyMS: -2, E2ELatencyMS: -3,
				Success: !want[i].Success, Backpressured: !want[i].Backpressured}
			expect[i] = got[i]
			need.Copy(&expect[i], want[i])
		}
		for lo := 0; lo < len(cands); lo += 7 {
			hi := min(lo+7, len(cands))
			if err := sess.ScoreTile(cands[lo:hi], need, got[lo:hi]); err != nil {
				t.Fatalf("need=%05b at %d: %v", need, lo, err)
			}
		}
		for i := range cands {
			if got[i] != expect[i] {
				t.Fatalf("need=%05b candidate %d: %+v, want %+v", need, i, got[i], expect[i])
			}
		}
	}
}

// TestScoreTileRejectsNonFiniteOutput: one NaN weight in one member must
// surface as an error naming the metric and the member — from a single
// prediction (C = 1) and from a search tile (C = 7) — instead of being
// averaged into a cost.
func TestScoreTileRejectsNonFiniteOutput(t *testing.T) {
	c := testCorpus(t)
	tr := c.Traces[1]
	cands := enumerate(rand.New(rand.NewSource(94)), tr.Query, tr.Cluster, 7)
	if len(cands) != 7 {
		t.Fatalf("only %d candidates", len(cands))
	}
	pr := randomPredictor(t, 3)
	params := pr[MetricE2ELatency].Models[1].Net.Params()
	params[len(params)-1][0] = math.NaN() // the readout bias
	want := "non-finite output for " + MetricE2ELatency.String() + ", member 1"
	sess, err := newTileSession(pr.ensembles(), analyzed(tr.Query), tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, len(cands)} {
		err := sess.ScoreTile(cands[:n], placement.AllCosts, make([]placement.PredCosts, n))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("C=%d: err = %v, want %q", n, err, want)
		}
	}
	if _, err := placement.PredictOne(pr, analyzed(tr.Query), checked(tr.Cluster), cands[0]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("PredictOne: err = %v, want %q", err, want)
	}

	// A poisoned ensemble outside the objective's read set does not fail
	// the rounds — they never run it — but it fails the search when the
	// chosen placement's costs are completed: no result carries a cost
	// nobody could predict.
	pr = randomPredictor(t, 3)
	params = pr[MetricThroughput].Models[2].Net.Params()
	params[len(params)-1][0] = math.NaN()
	if sess, err = newTileSession(pr.ensembles(), analyzed(tr.Query), tr.Cluster); err != nil {
		t.Fatal(err)
	}
	if err := sess.ScoreTile(cands, placement.MinProcLatency.Reads(), make([]placement.PredCosts, len(cands))); err != nil {
		t.Fatalf("ScoreTile without the poisoned metric: %v", err)
	}
	want = "non-finite output for " + MetricThroughput.String() + ", member 2"
	_, err = placement.Search(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), placement.RandomSample{}, placement.MinProcLatency,
		placement.Budget{MaxCandidates: 8}, placement.SearchOptions{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("search completing a poisoned metric: err = %v, want %q", err, want)
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
	cands := enumerate(rng, tr.Query, tr.Cluster, 24)
	sess, err := newTileSession(pr.ensembles(), analyzed(tr.Query), tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]placement.PredCosts, len(cands))
	if err := sess.ScoreTile(cands, placement.AllCosts, want); err != nil {
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
					if err := sess.ScoreTile(cands[lo:hi], placement.AllCosts, out[lo:hi]); err != nil {
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

// TestOptimizeDeterministicAcrossWorkers runs the full tiled search at
// several worker counts: the chosen placement, its costs and the filter
// counters must not depend on scheduling.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	pr := randomPredictor(t, 2)
	tr := testCorpus(t).Traces[3]
	var want *placement.SearchResult
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := placement.Search(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), placement.RandomSample{}, placement.MinProcLatency,
			placement.Budget{MaxCandidates: 48}, placement.SearchOptions{Seed: 95, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: result %+v != workers=1 result %+v", workers, got, want)
		}
	}
}

// wholeVectors scores every candidate in full, one session per candidate,
// behind the PredictorFunc adapter: the reference for a search that scores
// only what its objective reads.
type wholeVectors struct{ p placement.Predictor }

func (w wholeVectors) NewScoreSession(q *stream.Analysis, c hardware.Checked) (placement.TileScorer, error) {
	return placement.PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (placement.PredCosts, error) {
		return placement.PredictOne(w.p, q, c, p)
	}).NewScoreSession(q, c)
}

// TestSearchMatchesFullScoring: scoring the rounds with the objective's
// read set and completing the winner changes nothing a caller can see —
// every strategy under every objective returns the placement, all five
// costs (by bits) and the counters of the same search scoring every
// candidate in full.
func TestSearchMatchesFullScoring(t *testing.T) {
	pr := distinctPredictor(t, 2)
	tr := testCorpus(t).Traces[2] // 5 operators on 5 hosts
	budget := placement.Budget{MaxCandidates: 40}
	type run struct {
		strat placement.Strategy
		obj   placement.Objective
		opts  placement.SearchOptions
	}
	var runs []run
	for _, name := range placement.StrategyNames() {
		strat, err := placement.ParseStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []placement.Objective{placement.MinProcLatency, placement.MinE2ELatency, placement.MaxThroughput} {
			for _, seed := range []int64{1, 5, 9} {
				runs = append(runs, run{strat, obj, placement.SearchOptions{Seed: seed}})
			}
		}
	}
	runs = append(runs, run{placement.LocalSearch{}, placement.MinE2ELatency,
		placement.SearchOptions{Seed: 5, BannedHosts: []int{tr.Placement[0]}}})
	bits := func(c placement.PredCosts) [5]uint64 {
		b := [5]uint64{math.Float64bits(c.ThroughputTPS), math.Float64bits(c.ProcLatencyMS), math.Float64bits(c.E2ELatencyMS)}
		if c.Backpressured {
			b[3] = 1
		}
		if c.Success {
			b[4] = 1
		}
		return b
	}
	mixed := 0 // runs whose sanity check dropped some candidates and kept others
	for _, r := range runs {
		got, err := placement.Search(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), r.strat, r.obj, budget, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Filtered > 0 && got.Filtered < got.Examined {
			mixed++
		}
		want, err := placement.Search(context.Background(), wholeVectors{pr}, analyzed(tr.Query), checked(tr.Cluster), r.strat, r.obj, budget, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Placement, want.Placement) || bits(got.Costs) != bits(want.Costs) ||
			got.Index != want.Index || got.Examined != want.Examined || got.Rounds != want.Rounds ||
			got.Filtered != want.Filtered || got.Errored != want.Errored {
			t.Fatalf("%s %v %+v:\nread-set search  %+v\nfull-vector search %+v", r.strat.Name(), r.obj, r.opts, got, want)
		}
	}
	if mixed < len(runs)/2 {
		t.Fatalf("the sanity check split the candidates in %d of %d runs: the fixture no longer tests it", mixed, len(runs))
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
// the rows their candidates request: exact numbers at a fixed seed and one
// worker, so a change that silently breaks the sharing inside a tile —
// say, a featurizer that hands every candidate its own host arrays —
// fails here instead of only getting slower. Rows are counted once per
// ensemble pass, and a search makes three passes over its rounds, not
// five: the objective's own metric, success and backpressure are all that
// ranking reads (placement.Objective.Reads). The other two metrics make
// one pass each over a tile of one, the chosen placement, which shares
// nothing. A single prediction has nothing to share either.
func TestTileRowsShared(t *testing.T) {
	pr := randomPredictor(t, 3)
	tr := testCorpus(t).Traces[2] // 5 operators on 5 hosts
	for _, tc := range []struct {
		strat placement.Strategy
		// {computed, requested} rows per phase of one ensemble's pass over
		// all rounds, and over the chosen placement alone.
		rounds, winner [3][2]int64
	}{
		{placement.Exhaustive{}, [3][2]int64{{42, 195}, {78, 320}, {133, 256}}, [3][2]int64{{3, 3}, {5, 5}, {4, 4}}},
		{placement.LocalSearch{}, [3][2]int64{{111, 200}, {173, 320}, {210, 256}}, [3][2]int64{{3, 3}, {5, 5}, {4, 4}}},
	} {
		before := tileRowCounts()
		res, err := placement.Search(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), tc.strat, placement.MinProcLatency,
			placement.Budget{MaxCandidates: 64}, placement.SearchOptions{Seed: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := tileRowCounts()
		var want [3][2]int64
		for i := range got {
			for j := range got[i] {
				got[i][j] -= before[i][j]
				want[i][j] = 3*tc.rounds[i][j] + 2*tc.winner[i][j]
			}
		}
		if res.Examined != 64 || got != want {
			t.Fatalf("%s: %d candidates, {computed, requested} rows per phase %v, want 64 and %v (3 x %v + 2 x %v)",
				tc.strat.Name(), res.Examined, got, want, tc.rounds, tc.winner)
		}
	}
	before := tileRowCounts()
	if _, err := placement.PredictOne(pr, analyzed(tr.Query), checked(tr.Cluster), tr.Placement); err != nil {
		t.Fatal(err)
	}
	for i, n := range tileRowCounts() {
		if computed, requested := n[0]-before[i][0], n[1]-before[i][1]; computed != requested || requested == 0 {
			t.Fatalf("single prediction, phase %d: %d rows computed for %d requested", i, computed, requested)
		}
	}
}

// TestEnsembleCandidatesCountTheReadSet reads the saving off the counter a
// live process exports: a budget-64 search scores 64 candidates with the
// three metrics its objective reads and one — the chosen placement — with
// the other two; a single prediction scores one candidate with all five.
func TestEnsembleCandidatesCountTheReadSet(t *testing.T) {
	pr := randomPredictor(t, 2)
	tr := testCorpus(t).Traces[2]
	counts := func() (n [5]int64) {
		for m, c := range inferMet().ensembleCands {
			n[m] = c.Value()
		}
		return n
	}
	moved := func(before [5]int64) [5]int64 {
		after := counts()
		for m := range after {
			after[m] -= before[m]
		}
		return after
	}
	before := counts()
	res, err := placement.Search(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), placement.RandomSample{}, placement.MinProcLatency,
		placement.Budget{MaxCandidates: 64}, placement.SearchOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Metric order: throughput, proc-latency, e2e-latency, backpressure, success.
	if got, want := moved(before), [5]int64{1, 64, 1, 64, 64}; res.Examined != 64 || got != want {
		t.Fatalf("search of %d candidates scored %v per metric, want %v", res.Examined, got, want)
	}
	before = counts()
	if _, err := placement.PredictOne(pr, analyzed(tr.Query), checked(tr.Cluster), tr.Placement); err != nil {
		t.Fatal(err)
	}
	if got, want := moved(before), [5]int64{1, 1, 1, 1, 1}; got != want {
		t.Fatalf("one prediction scored %v per metric, want %v", got, want)
	}
}

// TestEvaluateRunsOnlyTheEvaluatedEnsemble: evaluating one metric through
// a predictor holding all five ensembles asks each trace for that metric's
// cost alone, so on the default registry only that metric's
// costream_inference_ensemble_candidates_total series moves, by one per
// evaluated trace.
func TestEvaluateRunsOnlyTheEvaluatedEnsemble(t *testing.T) {
	pr := randomPredictor(t, 2)
	c := &dataset.Corpus{Traces: testCorpus(t).Traces[:12]}
	successful := 0
	for _, tr := range c.Traces {
		if tr.Metrics.Success {
			successful++
		}
	}
	counts := func() (n [NumMetrics]int64) {
		for m := range n {
			n[m] = obs.Default().Counter("costream_inference_ensemble_candidates_total", "", "metric", Metric(m).String()).Value()
		}
		return n
	}
	for _, m := range AllMetrics() {
		before := counts()
		var want [NumMetrics]int64
		var err error
		if m.IsRegression() {
			want[m] = int64(successful)
			_, err = EvaluateRegression(pr, c, m)
		} else {
			want[m] = int64(c.Len())
			_, err = EvaluateClassification(pr, c, m)
		}
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got := counts()
		for i := range got {
			got[i] -= before[i]
		}
		if got != want {
			t.Fatalf("evaluating %v scored %v candidates per metric, want %v", m, got, want)
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
	cands := enumerate(rng, tr.Query, tr.Cluster, 10)
	bad := make(sim.Placement, len(tr.Placement))
	for i := range bad {
		bad[i] = len(tr.Cluster.Hosts) + 7
	}
	cands[4] = bad
	sess, err := newTileSession(pr.ensembles(), analyzed(tr.Query), tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]placement.PredCosts, len(cands))
	if err := sess.ScoreTile(cands, placement.AllCosts, out); err == nil {
		t.Fatal("tile with invalid candidate scored without error")
	}
	costs, errs := placement.Score(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), cands, placement.AllCosts)
	for i, p := range cands {
		if (errs[i] != nil) != (i == 4) {
			t.Fatalf("candidate %d: err = %v, want an error for exactly the invalid candidate", i, errs[i])
		}
		if i == 4 {
			continue
		}
		if want, err := placement.PredictOne(pr, analyzed(tr.Query), checked(tr.Cluster), p); err != nil || costs[i] != want {
			t.Fatalf("candidate %d: scored %+v, per-candidate %+v (%v)", i, costs[i], want, err)
		}
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
	_, err := placement.Search(ctx, pr, analyzed(tr.Query), checked(tr.Cluster), placement.RandomSample{},
		placement.MinProcLatency, placement.Budget{MaxCandidates: 32},
		placement.SearchOptions{Seed: 1, Workers: 2})
	if err == nil {
		t.Fatal("cancelled search scored successfully")
	}
}

// TestBuildGraphIntoAllocs pins the pooled tile packing: packing a tile of
// placements again into the same tables allocates nothing.
func TestBuildGraphIntoAllocs(t *testing.T) {
	c := testCorpus(t)
	tr := c.Traces[0]
	f := Featurizer{Mode: FeatFull}
	bf, err := f.NewBatch(analyzed(tr.Query), tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(98))
	var placements [][]int
	for _, p := range enumerate(rng, tr.Query, tr.Cluster, 8) {
		placements = append(placements, p)
	}
	var pg gnn.PackedGraphs
	if err := bf.pack(&pg, placements); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := bf.pack(&pg, placements); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state packing of %d candidates allocates %.1f times, want 0", len(placements), allocs)
	}
}

// hexCosts renders every bit of a cost vector: the costs as hexadecimal
// floats, then the two labels.
func hexCosts(c placement.PredCosts) string {
	return fmt.Sprintf("%x %x %x %t %t", c.ThroughputTPS, c.ProcLatencyMS, c.E2ELatencyMS, c.Success, c.Backpressured)
}

// handOffTile draws a tile of 32 distinct valid placements from the first
// corpus trace that has that many.
func handOffTile(t *testing.T) (*dataset.Trace, []sim.Placement) {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	for _, tr := range testCorpus(t).Traces {
		if cands := enumerate(rng, tr.Query, tr.Cluster, 32); len(cands) == 32 {
			return tr, cands
		}
	}
	t.Fatal("no corpus trace has 32 distinct placements")
	return nil, nil
}

// TestScoreTileBitsAtEveryGOMAXPROCS: however the passes of a tile are
// shared between the caller and idle helpers, every output bit is the
// per-member CostModel.PredictRaw oracle's and the GOMAXPROCS 1 run's —
// tiles of 1, 31 and 32 candidates, one, three and five costs named.
func TestScoreTileBitsAtEveryGOMAXPROCS(t *testing.T) {
	pr := distinctPredictor(t, 3)
	tr, cands := handOffTile(t)
	sess, err := newTileSession(pr.ensembles(), analyzed(tr.Query), tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	needs := []placement.CostSet{placement.CostE2ELatency, placement.MinProcLatency.Reads(), placement.AllCosts}
	oracle := make([]placement.PredCosts, len(cands))
	for i, p := range cands {
		for _, m := range AllMetrics() {
			if m.IsRegression() {
				*metricValue(m, &oracle[i]) = perMemberValue(t, pr[m], tr.Query, tr.Cluster, p)
			} else {
				*metricLabel(m, &oracle[i]) = perMemberLabel(t, pr[m], tr.Query, tr.Cluster, p)
			}
		}
	}
	inline := map[string]string{}
	helped := inferMet().helperPasses.Value()
	defer func() { t.Logf("helpers ran %d passes", inferMet().helperPasses.Value()-helped) }()
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{1, 31, 32} {
				for _, need := range needs {
					// Score each tile several times: who runs which pass
					// differs from call to call.
					for rep := 0; rep < 4; rep++ {
						out := make([]placement.PredCosts, n)
						if err := sess.ScoreTile(cands[:n], need, out); err != nil {
							t.Fatal(err)
						}
						for i := range out {
							var want placement.PredCosts
							need.Copy(&want, oracle[i])
							key := fmt.Sprintf("n=%d need=%05b candidate %d", n, need, i)
							got := hexCosts(out[i])
							if got != hexCosts(want) {
								t.Fatalf("GOMAXPROCS=%d %s: %s, per-member oracle %s", procs, key, got, hexCosts(want))
							}
							if procs == 1 {
								inline[key] = got
							} else if got != inline[key] {
								t.Fatalf("GOMAXPROCS=%d %s: %s, at GOMAXPROCS 1 %s", procs, key, got, inline[key])
							}
						}
					}
				}
			}
		}()
	}
}

// metricValue and metricLabel are Metric.Field's two halves.
func metricValue(m Metric, c *placement.PredCosts) *float64 { v, _ := m.Field(c); return v }
func metricLabel(m Metric, c *placement.PredCosts) *bool    { _, l := m.Field(c); return l }

// TestScoreTileNamesFirstFailedMetric: with two ensembles poisoned, the
// error names the first of them in paper metric order at every
// GOMAXPROCS, whichever pass fails first.
func TestScoreTileNamesFirstFailedMetric(t *testing.T) {
	tr, cands := handOffTile(t)
	for _, poisoned := range [][2]Metric{
		{MetricE2ELatency, MetricSuccess},
		{MetricThroughput, MetricBackpressure},
		{MetricProcLatency, MetricE2ELatency},
	} {
		pr := randomPredictor(t, 3)
		for _, m := range poisoned {
			params := pr[m].Models[1].Net.Params()
			params[len(params)-1][0] = math.NaN() // the readout bias
		}
		sess, err := newTileSession(pr.ensembles(), analyzed(tr.Query), tr.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		want := "non-finite output for " + poisoned[0].String() + ", member 1"
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for _, n := range []int{1, 32} {
					for rep := 0; rep < 8; rep++ {
						err := sess.ScoreTile(cands[:n], placement.AllCosts, make([]placement.PredCosts, n))
						if err == nil || err.Error() != "core: "+want {
							t.Fatalf("%v poisoned, GOMAXPROCS=%d, C=%d: err = %v, want %q", poisoned, procs, n, err, want)
						}
					}
				}
			}()
		}
	}
}

// TestScoreTileScratchReusedAtOnce: a caller that scores tile after tile
// gets its pooled tile scratch back at once, while helpers handed the
// last tile may still be waking: they must join nothing and touch
// nothing. Run under -race at GOMAXPROCS 4 in CI; every result must keep
// its bits, and helpers must have run some passes.
func TestScoreTileScratchReusedAtOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pr := distinctPredictor(t, 2)
	tr, cands := handOffTile(t)
	sess, err := newTileSession(pr.ensembles(), analyzed(tr.Query), tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	tiles := [][]sim.Placement{cands[:1], cands[1:2], cands[2:9]}
	want := make([][]placement.PredCosts, len(tiles))
	for i, tile := range tiles {
		want[i] = make([]placement.PredCosts, len(tile))
		if err := sess.ScoreTile(tile, placement.AllCosts, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	helped := inferMet().helperPasses.Value()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]placement.PredCosts, len(cands))
			for iter := 0; iter < 150; iter++ {
				i := (w + iter) % len(tiles)
				got := out[:len(tiles[i])]
				if err := sess.ScoreTile(tiles[i], placement.AllCosts, got); err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[i]) {
					t.Errorf("worker %d tile %d: %+v, want %+v", w, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if inferMet().helperPasses.Value() == helped {
		t.Error("no helper ran a pass in 450 tiles at GOMAXPROCS 4")
	}
}

// TestScoreTileAllocsIndependentOfGOMAXPROCS: a steady-state tile of one
// scored with all five ensembles allocates nothing, at GOMAXPROCS 2,
// where an idle helper may take passes, as at GOMAXPROCS 1, where the
// caller runs them all. testing.AllocsPerRun always measures at GOMAXPROCS 1, so
// this reads the process's malloc count around a call itself, as
// AllocsPerRun does, and takes the cheapest of many single calls:
// sync.Pool drops items at random under -race.
func TestScoreTileAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	pr := randomPredictor(t, 3)
	tr, cands := handOffTile(t)
	sess, err := newTileSession(pr.ensembles(), analyzed(tr.Query), tr.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]placement.PredCosts, 1)
	measure := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		best := uint64(math.MaxUint64)
		for range 50 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := sess.ScoreTile(cands[:1], placement.AllCosts, out); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	measure(2) // warm the pools and start the helpers
	helped := inferMet().helperPasses.Value()
	inline, shared := measure(1), measure(2)
	t.Logf("a tile of one allocates %d objects at GOMAXPROCS 1 and %d at 2; helpers ran %d passes",
		inline, shared, inferMet().helperPasses.Value()-helped)
	if inline != 0 || shared != 0 {
		t.Fatalf("a tile of one allocates %d objects at GOMAXPROCS 1 and %d at 2, want 0", inline, shared)
	}
}
