package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// tileFake is a predictor whose session scores tiles from a deterministic
// cost function — setting only the fields the call's need names — poisons
// whole tiles containing a marked candidate, and counts sessions opened
// and ScoreTile calls, recording what each asked for: enough to exercise
// the tiled scoring engine without real ensembles.
type tileFake struct {
	tile        int
	poison      int     // candidate host value that fails the tile / the candidate
	failSession bool    // NewScoreSession errors
	failNeed    CostSet // a ScoreTile call asking for exactly these costs errors
	sessions    atomic.Int64
	tileCalls   atomic.Int64

	mu    sync.Mutex
	calls []tileCall
}

// tileCall is one recorded ScoreTile call.
type tileCall struct {
	need  CostSet
	cands []sim.Placement
}

func fakeCosts(p sim.Placement) PredCosts {
	cost := 0.0
	for _, h := range p {
		cost += float64(h + 1)
	}
	return PredCosts{ProcLatencyMS: cost, E2ELatencyMS: 2 * cost, ThroughputTPS: 1000 - cost, Success: true}
}

type tileFakeSession struct{ f *tileFake }

func (s *tileFakeSession) TileSize() int { return s.f.tile }

func (s *tileFakeSession) ScoreTile(cands []sim.Placement, need CostSet, out []PredCosts) error {
	s.f.tileCalls.Add(1)
	call := tileCall{need: need}
	for _, p := range cands {
		call.cands = append(call.cands, append(sim.Placement(nil), p...))
	}
	s.f.mu.Lock()
	s.f.calls = append(s.f.calls, call)
	s.f.mu.Unlock()
	if need == s.f.failNeed {
		return fmt.Errorf("no prediction for costs %05b", need)
	}
	for i, p := range cands {
		if len(p) > 0 && p[0] == s.f.poison {
			return fmt.Errorf("poisoned tile")
		}
		need.Copy(&out[i], fakeCosts(p))
	}
	return nil
}

func (f *tileFake) NewScoreSession(q *stream.Analysis, c hardware.Checked) (TileScorer, error) {
	f.sessions.Add(1)
	if f.failSession {
		return nil, fmt.Errorf("no session")
	}
	return &tileFakeSession{f: f}, nil
}

// scorePooled is Score through a pool of workers, the pool a search
// scores its rounds with.
func scorePooled(ctx context.Context, pred Predictor, q *stream.Analysis, c hardware.Checked, cands []sim.Placement, need CostSet, workers int) ([]PredCosts, []error) {
	costs := make([]PredCosts, len(cands))
	errs := make([]error, len(cands))
	scoreTiled(tiling{ctx, openSession(pred, q, c), cands, need, costs, errs}, workers)
	return costs, errs
}

func tiledCandidates(n int) []sim.Placement {
	cands := make([]sim.Placement, n)
	for i := range cands {
		cands[i] = sim.Placement{i % 5, (i * 3) % 5}
	}
	return cands
}

// TestScoreTiledDeterministicAcrossWorkers: tile boundaries are fixed by
// the candidate count and tile width, and workers only claim tiles — so
// the merged costs are identical for every worker count.
func TestScoreTiledDeterministicAcrossWorkers(t *testing.T) {
	cands := tiledCandidates(53)
	var want []PredCosts
	for _, workers := range []int{1, 2, 3, 8, 16} {
		f := &tileFake{tile: 7, poison: -1}
		costs, errs := scorePooled(context.Background(), f, nil, hardware.Checked{}, cands, AllCosts, workers)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d candidate %d: %v", workers, i, err)
			}
		}
		if got, min := f.tileCalls.Load(), int64((len(cands)+6)/7); got != min {
			t.Fatalf("workers=%d: %d tiles scored, want %d", workers, got, min)
		}
		if want == nil {
			want = costs
			continue
		}
		for i := range cands {
			if costs[i] != want[i] {
				t.Fatalf("workers=%d candidate %d: %+v != %+v", workers, i, costs[i], want[i])
			}
		}
	}
}

// TestScoreTiledFallbackIsolatesFailure: a failing tile is re-scored as
// one-candidate tiles on the same session — never on a session per
// candidate — so only the poisoned candidate errors and its tile-mates
// keep their exact scores.
func TestScoreTiledFallbackIsolatesFailure(t *testing.T) {
	cands := tiledCandidates(20)
	f := &tileFake{tile: 8, poison: 2}
	costs, errs := Score(context.Background(), f, nil, hardware.Checked{}, cands, AllCosts)
	for i, p := range cands {
		if p[0] == f.poison {
			if errs[i] == nil {
				t.Fatalf("poisoned candidate %d scored without error", i)
			}
			if costs[i] != (PredCosts{}) {
				t.Fatalf("poisoned candidate %d kept partial costs %+v", i, costs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("candidate %d: %v", i, errs[i])
		}
		if costs[i] != fakeCosts(p) {
			t.Fatalf("candidate %d: %+v != %+v", i, costs[i], fakeCosts(p))
		}
	}
	if got := f.sessions.Load(); got != 1 {
		t.Fatalf("%d sessions opened; failing tiles must be isolated on the one session", got)
	}
	if got, tiles := f.tileCalls.Load(), int64((len(cands)+7)/8); got <= tiles {
		t.Fatalf("%d ScoreTile calls for %d tiles: failing tiles were not re-scored as tiles of one", got, tiles)
	}
}

// TestScoreTiledCancelled: a pre-cancelled context marks every candidate
// with ctx.Err() without calling the session.
func TestScoreTiledCancelled(t *testing.T) {
	cands := tiledCandidates(15)
	f := &tileFake{tile: 4, poison: -1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := scorePooled(ctx, f, nil, hardware.Checked{}, cands, AllCosts, 4)
	for i, err := range errs {
		if err != context.Canceled {
			t.Fatalf("candidate %d: err=%v, want context.Canceled", i, err)
		}
	}
	if f.tileCalls.Load() != 0 {
		t.Fatalf("%d tiles scored under a cancelled context", f.tileCalls.Load())
	}
}

// TestScoreTiledDegenerateTileSize: a session reporting a nonsensical
// tile width still scores every candidate (width clamps to 1).
func TestScoreTiledDegenerateTileSize(t *testing.T) {
	cands := tiledCandidates(5)
	f := &tileFake{tile: 0, poison: -1}
	costs, errs := Score(context.Background(), f, nil, hardware.Checked{}, cands, AllCosts)
	for i, p := range cands {
		if errs[i] != nil {
			t.Fatalf("candidate %d: %v", i, errs[i])
		}
		if costs[i] != fakeCosts(p) {
			t.Fatalf("candidate %d: %+v != %+v", i, costs[i], fakeCosts(p))
		}
	}
}

// TestSearchOpensOneSession: a multi-round search scores every round on
// the one session its first round opened; a session that cannot be
// opened fails every candidate, and the search with them, naming the
// session's error.
func TestSearchOpensOneSession(t *testing.T) {
	a, c := analyzed(testQuery()), checked(cluster12())
	f := &tileFake{tile: 4, poison: -1}
	res, err := Search(context.Background(), f, a, c, Beam{}, MinProcLatency, Budget{MaxCandidates: 48}, SearchOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Fatalf("beam search ran %d rounds, the test needs several", res.Rounds)
	}
	if got := f.sessions.Load(); got != 1 {
		t.Fatalf("%d sessions opened over %d rounds, want 1", got, res.Rounds)
	}
	if f.tileCalls.Load() < int64(res.Rounds) {
		t.Fatalf("%d tiles over %d rounds", f.tileCalls.Load(), res.Rounds)
	}

	broken := &tileFake{tile: 4, poison: -1, failSession: true}
	if _, err := Search(context.Background(), broken, a, c, Beam{}, MinProcLatency, Budget{MaxCandidates: 48}, SearchOptions{Seed: 3}); err == nil ||
		!strings.Contains(err.Error(), "no session") || broken.sessions.Load() != 1 {
		t.Fatalf("failed session: err = %v after %d sessions, want the session's error after one", err, broken.sessions.Load())
	}
}

// TestSearchScoresWhatTheObjectiveReads pins the read-set contract from
// the caller's side: every round of a search asks its session for
// Objective.Reads and nothing else, then exactly one tile of one asks for
// the complement — the chosen placement — and the result carries all five
// costs. A whole-vector function behind the PredictorFunc adapter ranks
// the same; a failing completion fails the search.
func TestSearchScoresWhatTheObjectiveReads(t *testing.T) {
	q, c := testQuery(), cluster12()
	budget := Budget{MaxCandidates: 48}
	for _, obj := range []Objective{MinProcLatency, MinE2ELatency, MaxThroughput} {
		reads := obj.Reads()
		if reads&(CostSuccess|CostBackpressure) != CostSuccess|CostBackpressure || reads == AllCosts {
			t.Fatalf("%v reads %05b: want the sanity check's two costs and one regression cost", obj, reads)
		}
		warm, err := RandomValid(rand.New(rand.NewSource(4)), analyzed(q), checked(c))
		if err != nil {
			t.Fatal(err)
		}
		var beam *SearchResult
		for _, strat := range []Strategy{WarmStart{Incumbent: warm, Inner: LocalSearch{}}, Beam{}} {
			f := &tileFake{tile: 4, poison: -1}
			res, err := Search(context.Background(), f, analyzed(q), checked(c), strat, obj, budget, SearchOptions{Seed: 3})
			if err != nil {
				t.Fatalf("%v %s: %v", obj, strat.Name(), err)
			}
			if res.Rounds < 2 || len(f.calls) < res.Rounds+1 {
				t.Fatalf("%v %s: %d rounds, %d ScoreTile calls; the test needs several rounds and a completion",
					obj, strat.Name(), res.Rounds, len(f.calls))
			}
			last := f.calls[len(f.calls)-1]
			for i, call := range f.calls[:len(f.calls)-1] {
				if call.need != reads {
					t.Fatalf("%v %s: round call %d asked for %05b, want Reads() = %05b", obj, strat.Name(), i, call.need, reads)
				}
			}
			if last.need != AllCosts&^reads || len(last.cands) != 1 || !slices.Equal(last.cands[0], res.Placement) {
				t.Fatalf("%v %s: last call asked for %05b of %v, want the complement %05b of the winner %v",
					obj, strat.Name(), last.need, last.cands, AllCosts&^reads, res.Placement)
			}
			if res.Costs != fakeCosts(res.Placement) {
				t.Fatalf("%v %s: result costs %+v, want all five fields %+v", obj, strat.Name(), res.Costs, fakeCosts(res.Placement))
			}
			beam = res
		}

		plain := PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (PredCosts, error) {
			return fakeCosts(p), nil
		})
		res, err := Search(context.Background(), plain, analyzed(q), checked(c), Beam{}, obj, budget, SearchOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Costs != fakeCosts(res.Placement) {
			t.Fatalf("%v through the adapter: costs %+v, want %+v", obj, res.Costs, fakeCosts(res.Placement))
		}
		if !slices.Equal(res.Placement, beam.Placement) || res.Index != beam.Index || res.Examined != beam.Examined {
			t.Fatalf("%v: whole vectors chose %v (candidate %d of %d), the read set %v (candidate %d of %d)",
				obj, res.Placement, res.Index, res.Examined, beam.Placement, beam.Index, beam.Examined)
		}

		broken := &tileFake{tile: 4, poison: -1, failNeed: AllCosts &^ reads}
		if _, err := Search(context.Background(), broken, analyzed(q), checked(c), Beam{}, obj, budget, SearchOptions{Seed: 3}); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("no prediction for costs %05b", AllCosts&^reads)) {
			t.Fatalf("%v: failing completion gave err = %v, want the session's error", obj, err)
		}
	}
}

// costBits is a cost vector as bits, so comparisons are bit for bit.
func costBits(pc PredCosts) [5]uint64 {
	b := [5]uint64{math.Float64bits(pc.ThroughputTPS), math.Float64bits(pc.ProcLatencyMS), math.Float64bits(pc.E2ELatencyMS)}
	if pc.Backpressured {
		b[3] = 1
	}
	if pc.Success {
		b[4] = 1
	}
	return b
}

// TestPredictorFuncScoresTheNeedFields is the adapter's oracle, over the
// simulator oracle's session: for every non-empty CostSet and tile widths
// 1, 7 and all, ScoreTile sets exactly the fields need names, bit for bit
// the wrapped function's, and leaves the others as the caller left them.
func TestPredictorFuncScoresTheNeedFields(t *testing.T) {
	q, c := testQuery(), testCluster()
	cands := enumerate(rand.New(rand.NewSource(8)), q, c, 12)
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 10, 2
	oracle := &SimOracle{Cfg: cfg}
	want := make([]PredCosts, len(cands))
	for i, p := range cands {
		var err error
		if want[i], err = oracle.simulate(analyzed(q), checked(c), p); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := oracle.NewScoreSession(analyzed(q), checked(c))
	if err != nil {
		t.Fatal(err)
	}
	for need := CostSet(1); need <= AllCosts; need++ {
		for _, tile := range []int{1, 7, len(cands)} {
			got := make([]PredCosts, len(cands))
			expect := make([]PredCosts, len(cands))
			for i := range cands {
				got[i] = PredCosts{ThroughputTPS: -1, ProcLatencyMS: -2, E2ELatencyMS: -3,
					Success: !want[i].Success, Backpressured: !want[i].Backpressured}
				expect[i] = got[i]
				need.Copy(&expect[i], want[i])
			}
			for lo := 0; lo < len(cands); lo += tile {
				hi := min(lo+tile, len(cands))
				if err := sess.ScoreTile(cands[lo:hi], need, got[lo:hi]); err != nil {
					t.Fatalf("need=%05b tile=%d at %d: %v", need, tile, lo, err)
				}
			}
			for i := range cands {
				if costBits(got[i]) != costBits(expect[i]) {
					t.Fatalf("need=%05b tile=%d candidate %d: %+v, want %+v", need, tile, i, got[i], expect[i])
				}
			}
		}
	}
}

// TestScoreOneCandidateAllocs: scoring one candidate allocates its costs
// and errors slices and the adapter's session, and nothing more. A round
// of one tile scores inline: the closure par.Each takes would allocate.
func TestScoreOneCandidateAllocs(t *testing.T) {
	a, c := analyzed(testQuery()), checked(testCluster())
	pred := PredictorFunc(func(_ *stream.Analysis, _ hardware.Checked, p sim.Placement) (PredCosts, error) {
		return fakeCosts(p), nil
	})
	cands := tiledCandidates(1)
	allocs := testing.AllocsPerRun(100, func() { Score(context.Background(), pred, a, c, cands, AllCosts) })
	if allocs > 3 {
		t.Errorf("one-candidate Score allocates %v times, want at most 3", allocs)
	}
}
