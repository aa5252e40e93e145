package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/nn"
	"costream/internal/par"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// fusedSlot is one metric ensemble of a scoring session: the ensemble
// itself (for its metric and head transforms) plus its weight stack.
type fusedSlot struct {
	e  *Ensemble
	sm *gnn.StackedModel
}

// TileSession is the inference path of the ensemble predictor and
// implements placement.TileScorer: one session per search — or per
// single prediction, which is a tile of one — hoists the
// placement-invariant featurization (operator graph, message-passing
// plan) and the ensemble stacks, and ScoreTile then packs a whole
// candidate tile once and advances it through the packed cross-candidate
// kernels, one gnn.InferEnsembleBatch pass per metric ensemble the caller
// asked for, shared between the caller and idle helper goroutines
// (par.Crew). The packed kernel is the only path: a session over an
// ensemble that cannot stack (traditional message passing, mixed
// featurization modes), or over ensembles featurized in different modes,
// is an error naming the metrics. Its scalar oracle is the inference tape
// behind CostModel.PredictRaw, member by member.
//
// ScoreTile is safe for concurrent use: all mutable state lives in
// pooled per-call and per-pass scratch.
type TileSession struct {
	bf    *BatchFeaturizer // nil without ensembles
	fused []fusedSlot      // paper metric order
	tile  int
}

// NewScoreSession implements placement.Predictor: a TileSession over the
// predictor's trained ensembles.
func (pr *Predictor) NewScoreSession(a *stream.Analysis, k hardware.Checked) (placement.TileScorer, error) {
	return newTileSession(pr.ensembles(), a, k.Cluster())
}

// newTileSession prepares a scoring session for the (analysis, cluster) pair
// over a set of ensembles sharing one featurization mode: the batch
// featurizer, the stack per ensemble, and the cache-bounded default tile
// size.
func newTileSession(ensembles []*Ensemble, a *stream.Analysis, c *hardware.Cluster) (*TileSession, error) {
	met := inferMet()
	featStart := time.Now()
	mode, err := featureMode(ensembles)
	if err != nil {
		return nil, err
	}
	s := &TileSession{}
	for _, e := range ensembles {
		st, _ := e.stacked() // featureMode stacked every ensemble
		s.fused = append(s.fused, fusedSlot{e: e, sm: st.sm})
	}
	if len(ensembles) > 0 {
		f := Featurizer{Mode: mode}
		if s.bf, err = f.NewBatch(a, c); err != nil {
			return nil, err
		}
	}
	s.tile = s.tileCap()
	met.featurizeSeconds.Since(featStart)
	return s, nil
}

// maxTile caps the tile width: beyond it the per-candidate kernel rows
// stop improving AVX utilization while the activation planes keep
// growing.
const maxTile = 32

// tileActivationBudget bounds the fused pass's per-tile activation
// footprint so the planes stay cache-resident on typical L2/L3 slices.
const tileActivationBudget = 4 << 20

// tileCap sizes tiles from the widest slot's per-candidate activation
// footprint when the tile's candidates share no row: an nOps-node
// operator state per phase (phase 2 and phase 3) plus the host, gather,
// concat and readout rows, each k*Hidden floats wide. A predictor without
// ensembles keeps the cap at maxTile.
func (s *TileSession) tileCap() int {
	maxKH, nOps, maxHosts := 0, 0, 0
	for _, fs := range s.fused {
		maxKH = max(maxKH, fs.sm.K()*fs.sm.Hidden())
	}
	if s.bf != nil {
		nOps = len(s.bf.ops.Nodes)
	}
	if maxKH == 0 || nOps == 0 {
		return maxTile
	}
	if s.bf.c != nil {
		maxHosts = min(nOps, len(s.bf.c.Hosts))
	}
	perCand := (2*(nOps+maxHosts) + 6) * maxKH * 8
	tile := tileActivationBudget / perCand
	return max(1, min(tile, maxTile))
}

// TileSize implements placement.TileScorer.
func (s *TileSession) TileSize() int { return s.tile }

// tileScratch bundles the per-call state of one ScoreTile invocation:
// the packed tile, the crew that shares its ensemble passes, and what
// those passes read and write. Pooled because tiles are scored
// concurrently by the search workers and single predictions by the serve
// handlers.
type tileScratch struct {
	placements [][]int
	pg         gnn.PackedGraphs
	own        passScratch // the buffers of the caller's passes
	crew       par.Crew
	pass       func(w, i int) // runPass, bound once so a call allocates no closure
	out        []placement.PredCosts
	passes     [NumMetrics]*fusedSlot // the needed ensembles, paper metric order
	errs       [NumMetrics]error      // what each pass failed with
}

// passScratch holds the buffers of an ensemble pass. A helper's passes
// take theirs from passPool, so the scratches of a process number its
// concurrent passes, not its tile scratches times its helpers.
type passScratch struct {
	bs   *gnn.BatchScratch
	vals []float64
}

var (
	tilePool = sync.Pool{New: func() any {
		ts := &tileScratch{own: passScratch{bs: gnn.NewBatchScratch()}}
		ts.pass = ts.runPass
		return ts
	}}
	passPool = sync.Pool{New: func() any {
		return &passScratch{bs: gnn.NewBatchScratch()}
	}}
)

// ScoreTile implements placement.TileScorer: it scores the candidate
// tile with the metric ensembles whose costs need names, setting those
// fields of every out[i] (a named metric without an ensemble gets the
// untrained default) and no other. Every ensemble is a pass of its own
// over the tile, so an ensemble outside need costs nothing — a search
// round names three of the five — and what a pass writes does not depend
// on which others ran. The tile is packed once; then the caller and any
// helper goroutine idle at that moment (par.Crew) claim the needed passes
// one at a time, each advancing all candidates × members in one batched
// kernel pass with its own scratch and writing only its metric's field.
// So outputs do not depend on the tile size or on who ran which pass, and
// match per-member CostModel.PredictRaw bit for bit. A NaN or infinite
// raw member output — a poisoned weight or feature — is an error naming
// the metric and member, never a cost: averaged into one it would compare
// false against everything and win or lose a search by accident. When
// several passes fail, the error is the first one's in paper metric order.
func (s *TileSession) ScoreTile(cands []sim.Placement, need placement.CostSet, out []placement.PredCosts) error {
	if len(out) != len(cands) {
		return fmt.Errorf("core: tile output holds %d slots, want %d", len(out), len(cands))
	}
	if len(cands) == 0 {
		return nil
	}
	met := inferMet()
	start := time.Now()
	// Every needed field starts from what a predictor without that
	// metric's ensemble reports — optimistic sanity values (success, no
	// backpressure) and zero costs, so a predictor trained for a single
	// target metric still drives optimization — and each needed ensemble
	// then overwrites its own.
	for i := range out {
		need.Copy(&out[i], placement.PredCosts{Success: true})
	}
	ts := tilePool.Get().(*tileScratch)
	defer tilePool.Put(ts)
	n := 0
	for i := range s.fused {
		if need&s.fused[i].e.Metric.Cost() != 0 {
			ts.passes[n], ts.errs[n] = &s.fused[i], nil
			n++
		}
	}
	if n > 0 {
		ts.placements = ts.placements[:0]
		for _, p := range cands {
			ts.placements = append(ts.placements, p)
		}
		if err := s.bf.pack(&ts.pg, ts.placements); err != nil {
			return fmt.Errorf("core: packing tile: %w", err)
		}
		ts.out = out
		ts.crew.Run(n, ts.pass)
		ts.out = nil
		for _, err := range ts.errs[:n] {
			if err != nil {
				return err
			}
		}
	}
	met.candidates.Add(int64(len(cands)))
	met.tileSize.Record(int64(len(cands)))
	met.tileSeconds.Since(start)
	return nil
}

// runPass runs the i-th needed ensemble over the packed tile on runner w
// of the crew (0 is the caller) and folds its members' outputs into that
// metric's field of every candidate.
func (ts *tileScratch) runPass(w, i int) {
	met := inferMet()
	fs, c, ps := ts.passes[i], len(ts.out), &ts.own
	if w > 0 {
		met.helperPasses.Inc()
		ps = passPool.Get().(*passScratch)
		defer passPool.Put(ps)
	}
	k := fs.sm.K()
	ps.vals = nn.Grow(ps.vals, c*k)
	vals := ps.vals
	if err := fs.sm.InferEnsembleBatch(&ts.pg, ps.bs, vals); err != nil {
		ts.errs[i] = fmt.Errorf("core: scoring tile for %v: %w", fs.e.Metric, err)
		return
	}
	if j := firstNonFinite(vals); j >= 0 {
		ts.errs[i] = fmt.Errorf("core: non-finite output for %v, member %d", fs.e.Metric, j%k)
		return
	}
	for ci := range c {
		row := vals[ci*k : (ci+1)*k]
		for m := range row {
			row[m] = fs.e.Models[m].headTransform(row[m])
		}
		applyCost(&ts.out[ci], fs.e.Metric, row)
	}
	met.ensembleCands[fs.e.Metric].Add(int64(c))
	for i, rows := range ts.pg.Rows() {
		met.tileRows[i].requested.Add(int64(rows.Requested))
		met.tileRows[i].computed.Add(int64(rows.Computed))
	}
}

// firstNonFinite returns the index of the first NaN or infinity in vals,
// or -1 when every value is finite.
func firstNonFinite(vals []float64) int {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// applyCost folds an ensemble's transformed member outputs into the
// candidate's cost vector: the member-order mean for regression metrics,
// the majority vote for the binary ones.
func applyCost(costs *placement.PredCosts, metric Metric, vals []float64) {
	if v, l := metric.Field(costs); v != nil {
		*v = meanOf(vals)
	} else {
		*l = voteOf(vals)
	}
}
