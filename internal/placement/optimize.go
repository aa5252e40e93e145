package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// PredCosts is a predicted cost vector for one placement candidate,
// mirroring the paper's five cost metrics.
type PredCosts struct {
	ThroughputTPS float64
	ProcLatencyMS float64
	E2ELatencyMS  float64
	Success       bool
	Backpressured bool
}

// CostSet is a set of PredCosts fields: what a TileScorer caller will read
// from the vectors it asks for. Every cost metric is predicted by its own
// ensemble, independently of the others, so a caller that names fewer
// costs saves the inference passes of the rest.
type CostSet uint8

// The five PredCosts fields, in the paper's metric order.
const (
	CostThroughput CostSet = 1 << iota
	CostProcLatency
	CostE2ELatency
	CostBackpressure
	CostSuccess

	AllCosts = CostThroughput | CostProcLatency | CostE2ELatency | CostBackpressure | CostSuccess
)

// Copy sets the fields of dst that s names to src's and leaves the rest.
func (s CostSet) Copy(dst *PredCosts, src PredCosts) {
	if s&CostThroughput != 0 {
		dst.ThroughputTPS = src.ThroughputTPS
	}
	if s&CostProcLatency != 0 {
		dst.ProcLatencyMS = src.ProcLatencyMS
	}
	if s&CostE2ELatency != 0 {
		dst.E2ELatencyMS = src.E2ELatencyMS
	}
	if s&CostBackpressure != 0 {
		dst.Backpressured = src.Backpressured
	}
	if s&CostSuccess != 0 {
		dst.Success = src.Success
	}
}

// Predictor estimates the execution costs of a query under a placement.
// COSTREAM's ensemble satisfies this, as does the flat-vector baseline and
// an oracle wrapping the simulator.
type Predictor interface {
	PredictPlacement(q *stream.Query, c *hardware.Cluster, p sim.Placement) (PredCosts, error)
}

// BatchPredictor is a Predictor that can score many candidates in one
// call, amortizing the placement-invariant featurization work (the query
// graph and per-host features) across the whole batch. PredictBatch must
// return one PredCosts per candidate, in order, with values identical to
// per-candidate PredictPlacement calls. Optimize detects this interface
// and routes candidate chunks through it.
type BatchPredictor interface {
	Predictor
	PredictBatch(q *stream.Query, c *hardware.Cluster, candidates []sim.Placement) ([]PredCosts, error)
}

// TileScorer scores tiles of candidates for one fixed (query, cluster)
// pair. NewScoreSession hoists the placement-invariant work (featurizing
// the query graph and per-host features, snapshotting the ensemble weight
// stacks) out of the rounds; ScoreTile then scores a contiguous tile of
// candidates through the packed cross-candidate kernels, one PredCosts
// per candidate in out (len(out) == len(cands)). need names the costs the
// caller will read: ScoreTile sets exactly those fields of every out[i] —
// to the prediction, or for a metric the predictor was not trained on to
// the default PredictPlacement reports (Success true, everything else
// zero) — and leaves the other fields as it found them, so a vector can
// be completed in place by a second call with the complement. The fields
// it sets must be identical to per-candidate PredictPlacement calls and
// must not depend on need or on how a round is split into tiles.
// ScoreTile is called concurrently from multiple workers;
// implementations keep per-call state in private scratch. TileSize is the
// implementation's preferred tile width (cache-footprint bound); callers
// may use any width.
type TileScorer interface {
	TileSize() int
	ScoreTile(cands []sim.Placement, need CostSet, out []PredCosts) error
}

// SessionPredictor is a Predictor that can open a reusable scoring
// session. Search opens one per run and scores every round on it;
// Optimize opens one per call. Both route candidate tiles through it and
// fall back to the chunked BatchPredictor path when the session cannot be
// built (malformed query, incompatible ensembles).
type SessionPredictor interface {
	Predictor
	NewScoreSession(q *stream.Query, c *hardware.Cluster) (TileScorer, error)
}

// InferencePathStats counts which inference path served a predictor's
// full-ensemble evaluations and the total wall time spent in each: the
// stacked one-pass matrix kernels, or the per-member fallback (ablation
// architectures, mixed featurizations). Serving layers surface it so
// kernel regressions show up in production stats, not just benchmarks.
type InferencePathStats struct {
	StackedCalls  int64 `json:"stacked_calls"`
	StackedNanos  int64 `json:"stacked_nanos"`
	FallbackCalls int64 `json:"fallback_calls"`
	FallbackNanos int64 `json:"fallback_nanos"`
}

// PathStatsReporter is optionally implemented by predictors that track
// their inference paths (COSTREAM's ensemble predictor does); consumers
// type-assert for it.
type PathStatsReporter interface {
	InferencePathStats() InferencePathStats
}

// Objective selects the target cost metric for placement optimization.
type Objective int

// Optimization objectives.
const (
	MinProcLatency Objective = iota
	MinE2ELatency
	MaxThroughput
)

func (o Objective) String() string {
	switch o {
	case MinProcLatency:
		return "min-processing-latency"
	case MinE2ELatency:
		return "min-e2e-latency"
	case MaxThroughput:
		return "max-throughput"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Score maps predicted costs onto the objective's scalar score; lower is
// better for every objective (MaxThroughput negates the throughput).
func (o Objective) Score(costs PredCosts) float64 { return objectiveScore(o, costs) }

// ParseObjective resolves an objective name (as used by the CLI
// -objective flags and the serve API "objective" field). The empty
// string selects MinProcLatency.
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "", "min-processing-latency", "proc-latency", "latency":
		return MinProcLatency, nil
	case "min-e2e-latency", "e2e-latency", "e2e":
		return MinE2ELatency, nil
	case "max-throughput", "throughput":
		return MaxThroughput, nil
	}
	return 0, fmt.Errorf("placement: unknown objective %q (want min-processing-latency, min-e2e-latency or max-throughput)", name)
}

// Result is the outcome of an Optimize call.
type Result struct {
	Placement sim.Placement
	Index     int // index into the candidate slice
	Costs     PredCosts
	// Filtered reports how many candidates were removed before selection:
	// by the sanity check (predicted failure or backpressure) or because
	// their prediction errored.
	Filtered int
	// Errored reports how many candidates failed to score at all (a
	// subset of Filtered).
	Errored int
}

// Options tunes the candidate-scoring engine behind Optimize.
type Options struct {
	// Workers bounds the number of concurrent scoring workers. Zero or
	// negative selects GOMAXPROCS. The chosen placement is independent of
	// the worker count: candidate scores are merged by candidate index,
	// and ties break toward the lower index.
	Workers int
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Optimize scores every candidate with the predictor, removes candidates
// predicted to fail or be backpressured (the paper's sanity check), and
// returns the remaining candidate optimizing the objective. If the filter
// removes everything, the best candidate overall is returned, preferring
// lower predicted cost. Candidates whose prediction errors are skipped
// (counted in Result.Filtered and Result.Errored); Optimize only fails if
// every candidate does.
//
// Optimize uses default Options; use OptimizeOpts to bound the worker
// pool explicitly.
func Optimize(pred Predictor, q *stream.Query, c *hardware.Cluster, candidates []sim.Placement, obj Objective) (*Result, error) {
	return OptimizeOpts(pred, q, c, candidates, obj, Options{})
}

// openSession returns a scoring session for the (query, cluster) pair
// when the predictor offers one, or nil: a plain predictor has none, and
// one that cannot be built (malformed query, cluster mismatch) leaves the
// chunked path of scoreOn to reproduce the per-candidate errors the
// caller expects.
func openSession(pred Predictor, q *stream.Query, c *hardware.Cluster) TileScorer {
	if sp, ok := pred.(SessionPredictor); ok {
		if sess, err := sp.NewScoreSession(q, c); err == nil {
			return sess
		}
	}
	return nil
}

// scoreCandidates scores one candidate list in full on a session of its
// own (see openSession and scoreOn).
func scoreCandidates(ctx context.Context, pred Predictor, q *stream.Query, c *hardware.Cluster, candidates []sim.Placement, opts Options) ([]PredCosts, []error) {
	return scoreOn(ctx, openSession(pred, q, c), pred, q, c, candidates, AllCosts, opts)
}

// scoreOn scores every candidate through a bounded pool of workers,
// merging results into slices indexed by candidate so the output is
// identical for every worker count.
//
// With a session, workers claim fixed-boundary candidate tiles (the
// session's preferred width) from an atomic counter, so a fast worker
// takes more tiles instead of idling behind a static partition, and each
// tile runs one packed cross-candidate kernel pass for the costs in need
// (the other fields of the returned vectors stay zero). A failing tile is
// re-scored one candidate at a time on the same session to isolate the
// failing candidates.
//
// Without one (sess == nil) the candidates are partitioned into
// contiguous chunks; a BatchPredictor receives whole chunks so it can
// featurize the shared query/cluster state once per chunk, with the same
// per-candidate fallback on chunk failure. These predictors cannot score
// part of a vector: need is ignored and every field is set. A cancelled
// ctx (nil means background) stops each worker at its next tile or
// candidate boundary; unscored candidates carry ctx.Err().
func scoreOn(ctx context.Context, sess TileScorer, pred Predictor, q *stream.Query, c *hardware.Cluster, candidates []sim.Placement, need CostSet, opts Options) ([]PredCosts, []error) {
	n := len(candidates)
	costs := make([]PredCosts, n)
	errs := make([]error, n)
	if n == 0 {
		return costs, errs
	}
	if sess != nil {
		scoreTiled(ctx, sess, candidates, need, costs, errs, opts)
		return costs, errs
	}
	cancelled := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	scoreChunk := func(lo, hi int) {
		if err := cancelled(); err != nil {
			for i := lo; i < hi; i++ {
				errs[i] = err
			}
			return
		}
		if bp, ok := pred.(BatchPredictor); ok {
			out, err := bp.PredictBatch(q, c, candidates[lo:hi])
			if err == nil && len(out) == hi-lo {
				copy(costs[lo:hi], out)
				return
			}
			// The batch call failed as a whole; fall through to
			// per-candidate scoring to isolate the failing candidates.
		}
		for i := lo; i < hi; i++ {
			if err := cancelled(); err != nil {
				errs[i] = err
				continue
			}
			costs[i], errs[i] = pred.PredictPlacement(q, c, candidates[i])
		}
	}
	if workers := opts.workers(n); workers == 1 {
		scoreChunk(0, n)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				scoreChunk(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	return costs, errs
}

// scoreTiled drives one scoring session: the candidate list is cut into
// fixed-boundary tiles of the session's preferred width, and workers
// claim tiles from a shared atomic counter. Tile boundaries depend only
// on the candidate count and tile width — never on worker scheduling —
// and ScoreTile results must not depend on tiling, so the merged output
// is identical for every worker count. A failing tile is re-scored as
// one-candidate tiles on the same session to isolate the failure; a
// cancelled ctx stops claiming and marks unscored candidates with
// ctx.Err().
func scoreTiled(ctx context.Context, sess TileScorer, candidates []sim.Placement, need CostSet, costs []PredCosts, errs []error, opts Options) {
	n := len(candidates)
	tile := sess.TileSize()
	if tile < 1 {
		tile = 1
	}
	nTiles := (n + tile - 1) / tile
	cancelled := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	scoreTile := func(t int) {
		lo := t * tile
		hi := min(lo+tile, n)
		if err := cancelled(); err != nil {
			for i := lo; i < hi; i++ {
				errs[i] = err
			}
			return
		}
		if err := sess.ScoreTile(candidates[lo:hi], need, costs[lo:hi]); err == nil {
			return
		}
		// The tile failed as a whole; reset any partial results and score
		// tiles of one to isolate the failing candidates.
		for i := lo; i < hi; i++ {
			costs[i] = PredCosts{}
			if err := cancelled(); err != nil {
				errs[i] = err
				continue
			}
			if errs[i] = sess.ScoreTile(candidates[i:i+1], need, costs[i:i+1]); errs[i] != nil {
				costs[i] = PredCosts{}
			}
		}
	}
	if workers := opts.workers(nTiles); workers == 1 {
		for t := 0; t < nTiles; t++ {
			scoreTile(t)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					t := int(next.Add(1)) - 1
					if t >= nTiles {
						return
					}
					scoreTile(t)
				}
			}()
		}
		wg.Wait()
	}
}

// objectiveScore maps predicted costs onto the objective's scalar score;
// lower is better for every objective.
func objectiveScore(obj Objective, costs PredCosts) float64 {
	switch obj {
	case MaxThroughput:
		return -costs.ThroughputTPS
	case MinE2ELatency:
		return costs.E2ELatencyMS
	default:
		return costs.ProcLatencyMS
	}
}

// sane is the paper's sanity check: a candidate predicted to fail or to be
// backpressured is dropped before selection.
func sane(costs PredCosts) bool { return costs.Success && !costs.Backpressured }

// Reads names the costs that ranking a candidate under the objective
// reads: the one objectiveScore scores it by and the two sane looks at.
// A search asks its scoring session for these and nothing else, so the
// three functions must change together.
func (o Objective) Reads() CostSet {
	switch o {
	case MaxThroughput:
		return CostThroughput | CostSuccess | CostBackpressure
	case MinE2ELatency:
		return CostE2ELatency | CostSuccess | CostBackpressure
	default:
		return CostProcLatency | CostSuccess | CostBackpressure
	}
}

// OptimizeOpts is Optimize with explicit engine options. Candidate scores
// are merged by candidate index, so the same candidate list yields the
// same Result regardless of Workers.
func OptimizeOpts(pred Predictor, q *stream.Query, c *hardware.Cluster, candidates []sim.Placement, obj Objective, opts Options) (*Result, error) {
	n := len(candidates)
	if n == 0 {
		return nil, fmt.Errorf("placement: no candidates to optimize over")
	}
	costs, errs := scoreCandidates(context.Background(), pred, q, c, candidates, opts)

	score := func(costs PredCosts) float64 { return objectiveScore(obj, costs) }
	filtered, errored := 0, 0
	var firstErr error
	best, bestFallback := -1, -1
	bestScore, fallbackScore := math.Inf(1), math.Inf(1)
	for i := range candidates {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("placement: predicting candidate %d: %w", i, errs[i])
			}
			filtered++
			errored++
			continue
		}
		s := score(costs[i])
		if s < fallbackScore {
			fallbackScore = s
			bestFallback = i
		}
		if sane(costs[i]) {
			if s < bestScore {
				bestScore = s
				best = i
			}
		} else {
			filtered++
		}
	}
	if best < 0 {
		// Everything filtered: fall back to the cheapest scored prediction.
		best = bestFallback
	}
	if best < 0 {
		return nil, fmt.Errorf("placement: all %d candidates failed to score: %w", n, firstErr)
	}
	return &Result{
		Placement: candidates[best],
		Index:     best,
		Costs:     costs[best],
		Filtered:  filtered,
		Errored:   errored,
	}, nil
}

// SimOracle is a Predictor that runs the execution simulator: it provides
// perfect cost knowledge and is used by tests and as an upper bound.
type SimOracle struct {
	Cfg sim.Config
}

// PredictPlacement implements Predictor by simulating the placement.
func (o *SimOracle) PredictPlacement(q *stream.Query, c *hardware.Cluster, p sim.Placement) (PredCosts, error) {
	m, err := sim.Run(q, c, p, o.Cfg)
	if err != nil {
		return PredCosts{}, err
	}
	return PredCosts{
		ThroughputTPS: m.ThroughputTPS,
		ProcLatencyMS: m.ProcLatencyMS,
		E2ELatencyMS:  m.E2ELatencyMS,
		Success:       m.Success,
		Backpressured: m.Backpressured,
	}, nil
}

// SimOracle deliberately does not implement BatchPredictor: each
// candidate needs its own simulator run, so there is no shared work to
// amortize, and the per-candidate path already gives both the chunked
// worker pool and per-candidate error isolation.

// HeuristicInitial returns the plain heuristic initial placement used as
// the Exp 2a baseline denominator: the first valid random draw under the
// Figure 5 rules, without any cost-based selection (following [32]).
func HeuristicInitial(rng *rand.Rand, q *stream.Query, c *hardware.Cluster) (sim.Placement, error) {
	return RandomValid(rng, q, c)
}
