package placement

import (
	"context"
	"fmt"

	"costream/internal/hardware"
	"costream/internal/par"
	"costream/internal/sim"
	"costream/internal/stream"
)

// PredCosts is a predicted cost vector for one placement candidate,
// mirroring the paper's five cost metrics. Its JSON form is the "costs"
// object of the serve API and a deployment's "predicted" object.
type PredCosts struct {
	ThroughputTPS float64 `json:"throughput_tps"`
	ProcLatencyMS float64 `json:"proc_latency_ms"`
	E2ELatencyMS  float64 `json:"e2e_latency_ms"`
	Success       bool    `json:"success"`
	Backpressured bool    `json:"backpressured"`
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

// Predictor is the cost model behind every placement decision: it opens a
// scoring session for one analysed query on one checked cluster (see
// Check), which scores that pair's candidate placements.
// COSTREAM's ensembles, the flat-vector baseline and the simulator oracle
// implement it; PredictorFunc adapts a plain per-placement cost function.
// Score and PredictOne are the two ways to use one outside a search. A
// control-plane heal pass (controlplane.Pass) searches several
// deployments at once on one predictor, so NewScoreSession is called
// concurrently and must be safe for concurrent use.
type Predictor interface {
	NewScoreSession(a *stream.Analysis, k hardware.Checked) (TileScorer, error)
}

// TileScorer scores tiles of candidates for one fixed (query, cluster)
// pair. NewScoreSession hoists the placement-invariant work (featurizing
// the query graph and per-host features, snapshotting the ensemble weight
// stacks) out of the rounds; ScoreTile then scores a contiguous tile of
// candidates, one PredCosts per candidate in out (len(out) == len(cands)).
// need names the costs the caller will read: ScoreTile sets exactly those
// fields of every out[i] — to the prediction, or for a metric the
// predictor was not trained on to the untrained default (Success true,
// everything else zero) — and leaves the other fields as it found them,
// so a vector can be completed in place by a second call with the
// complement. The fields it sets must not depend on need or on how a
// round is split into tiles: a tile of one (PredictOne) is the reference.
// ScoreTile is called concurrently from multiple workers;
// implementations keep per-call state in private scratch. TileSize is the
// implementation's preferred tile width (cache-footprint bound); callers
// may use any width.
type TileScorer interface {
	TileSize() int
	ScoreTile(cands []sim.Placement, need CostSet, out []PredCosts) error
}

// PredictorFunc adapts a function returning whole cost vectors to a
// Predictor. Its sessions call the function once per candidate (tile
// width 1) and copy the fields a ScoreTile call's need names, so a search
// over it ranks exactly as over a native session.
type PredictorFunc func(a *stream.Analysis, k hardware.Checked, p sim.Placement) (PredCosts, error)

// NewScoreSession implements Predictor.
func (f PredictorFunc) NewScoreSession(a *stream.Analysis, k hardware.Checked) (TileScorer, error) {
	return &funcSession{f: f, a: a, k: k}, nil
}

type funcSession struct {
	f PredictorFunc
	a *stream.Analysis
	k hardware.Checked
}

func (*funcSession) TileSize() int { return 1 }

func (s *funcSession) ScoreTile(cands []sim.Placement, need CostSet, out []PredCosts) error {
	if len(out) != len(cands) {
		return fmt.Errorf("placement: tile output holds %d slots, want %d", len(out), len(cands))
	}
	for i, p := range cands {
		costs, err := s.f(s.a, s.k, p)
		if err != nil {
			return err
		}
		need.Copy(&out[i], costs)
	}
	return nil
}

// Check makes the two checks of a placement decision's inputs, where they
// enter: it analyses q (Query.Analyze), then checks c (Cluster.Check).
func Check(q *stream.Query, c *hardware.Cluster) (*stream.Analysis, hardware.Checked, error) {
	a, err := q.Analyze()
	if err != nil {
		return nil, hardware.Checked{}, err
	}
	k, err := c.Check()
	return a, k, err
}

// PredictOne predicts all five costs of one placement: a tile of one on a
// session of its own.
func PredictOne(pred Predictor, a *stream.Analysis, k hardware.Checked, p sim.Placement) (PredCosts, error) {
	sess, err := pred.NewScoreSession(a, k)
	if err != nil {
		return PredCosts{}, err
	}
	var out [1]PredCosts
	if err := sess.ScoreTile([]sim.Placement{p}, AllCosts, out[:]); err != nil {
		return PredCosts{}, err
	}
	return out[0], nil
}

// Score scores every candidate for the costs need names on one session of
// its own, tile by tile on the caller's goroutine: one PredCosts and one
// error per candidate, in candidate order. A failing candidate carries its
// error and zero costs without costing the others theirs; a session that
// cannot be opened is every candidate's error, and no candidates open
// none. A cancelled ctx (nil means background) stops scoring at the next
// tile, and the candidates left unscored carry ctx.Err().
func Score(ctx context.Context, pred Predictor, a *stream.Analysis, k hardware.Checked, cands []sim.Placement, need CostSet) ([]PredCosts, []error) {
	costs := make([]PredCosts, len(cands))
	errs := make([]error, len(cands))
	if len(cands) > 0 {
		scoreTiled(tiling{ctx, openSession(pred, a, k), cands, need, costs, errs}, 1)
	}
	return costs, errs
}

// openSession opens the predictor's session for (a, k). One that cannot be
// opened becomes a session whose every tile fails with the error, so each
// candidate scored on it carries that error.
func openSession(pred Predictor, a *stream.Analysis, k hardware.Checked) TileScorer {
	sess, err := pred.NewScoreSession(a, k)
	if err != nil {
		return failedSession{err}
	}
	return sess
}

type failedSession struct{ err error }

func (failedSession) TileSize() int { return 1 }

func (s failedSession) ScoreTile([]sim.Placement, CostSet, []PredCosts) error { return s.err }

// tiling is one scoring job: candidates scored on a session for the costs
// in need, into the candidate-indexed costs and errs.
type tiling struct {
	ctx   context.Context
	sess  TileScorer
	cands []sim.Placement
	need  CostSet
	costs []PredCosts
	errs  []error
}

// scoreTiled cuts the candidates into fixed-boundary tiles of the
// session's preferred width and scores them on par.Each. Tile boundaries
// depend only on the candidate count and tile width — never on
// scheduling — and ScoreTile results must not depend on tiling, so the
// merged output is identical for every worker count. A round of one tile
// or one worker scores inline: the closure par.Each takes allocates.
func scoreTiled(tl tiling, workers int) {
	n := len(tl.cands)
	tile := max(tl.sess.TileSize(), 1)
	nTiles := (n + tile - 1) / tile
	if nTiles <= 1 || workers == 1 {
		for lo := 0; lo < n; lo += tile {
			tl.score(lo, min(lo+tile, n))
		}
		return
	}
	par.Each(nTiles, workers, func(_, t int) { tl.score(t*tile, min((t+1)*tile, n)) })
}

// score scores candidates lo..hi-1 as one tile. A tile that fails as a
// whole is re-scored as tiles of one on the same session to isolate the
// failing candidates; a cancelled context marks the candidates it stops
// with ctx.Err().
func (tl tiling) score(lo, hi int) {
	if err := ctxErr(tl.ctx); err != nil {
		for i := lo; i < hi; i++ {
			tl.errs[i] = err
		}
		return
	}
	if tl.sess.ScoreTile(tl.cands[lo:hi], tl.need, tl.costs[lo:hi]) == nil {
		return
	}
	for i := lo; i < hi; i++ {
		tl.costs[i] = PredCosts{}
		if tl.errs[i] = ctxErr(tl.ctx); tl.errs[i] != nil {
			continue
		}
		if tl.errs[i] = tl.sess.ScoreTile(tl.cands[i:i+1], tl.need, tl.costs[i:i+1]); tl.errs[i] != nil {
			tl.costs[i] = PredCosts{}
		}
	}
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
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

// ParseObjective resolves an objective name (as used by the serve API's
// "objective" field and a fleet scenario's recovery.objective). The
// empty string selects MinProcLatency.
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

// Score maps predicted costs onto the objective's scalar score; lower is
// better for every objective (MaxThroughput negates the throughput).
func (o Objective) Score(costs PredCosts) float64 {
	switch o {
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
// reads: the one Score scores it by and the two sane looks at.
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

// SimOracle is a Predictor that runs the execution simulator: it provides
// perfect cost knowledge and is used by tests, the fleet simulator and as
// an upper bound. Each candidate needs a simulator run of its own: the
// session is the PredictorFunc adapter over one run per candidate, all
// on the analysis and the cluster its caller made.
type SimOracle struct {
	Cfg sim.Config
}

// NewScoreSession implements Predictor.
func (o *SimOracle) NewScoreSession(a *stream.Analysis, k hardware.Checked) (TileScorer, error) {
	return PredictorFunc(o.simulate).NewScoreSession(a, k)
}

// simulate runs the placement and reports the measured costs.
func (o *SimOracle) simulate(a *stream.Analysis, k hardware.Checked, p sim.Placement) (PredCosts, error) {
	m, err := sim.Run(a, k, p, o.Cfg)
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
