package placement

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// Budget bounds the work of one placement search run. Every strategy is
// driven by the same budgeted core, so budgets are directly comparable
// across strategies: a Beam run with MaxCandidates 64 scores at most as
// many placements as a RandomSample run with MaxCandidates 64.
type Budget struct {
	// MaxCandidates bounds the number of distinct placements scored by
	// the predictor. Zero or negative selects DefaultMaxCandidates.
	MaxCandidates int
	// MaxRounds bounds the number of generate->score->prune rounds. Zero
	// or negative means unlimited (the candidate budget still applies).
	MaxRounds int
}

// DefaultMaxCandidates is the candidate budget when Budget leaves
// MaxCandidates unset — the paper's k=16 sample size.
const DefaultMaxCandidates = 16

func (b Budget) withDefaults() Budget {
	if b.MaxCandidates <= 0 {
		b.MaxCandidates = DefaultMaxCandidates
	}
	return b
}

// SearchOptions tunes a search run.
type SearchOptions struct {
	// Workers bounds the concurrent scoring workers (zero or negative
	// selects GOMAXPROCS). No product caller sets it; tests and the
	// benchmark do. The chosen placement is independent of it.
	Workers int
	// Seed drives every stochastic strategy decision (random draws,
	// restart points, neighbor subsampling). A fixed seed yields an
	// identical SearchResult for any Workers value and any GOMAXPROCS.
	Seed int64
	// Telemetry enables per-round RoundStats collection on the
	// SearchResult (candidates generated/deduped/scored/pruned and the
	// incumbent anytime curve). It never affects which placement is
	// chosen; the aggregate costream_search_* metric families in
	// obs.Default are recorded regardless.
	Telemetry bool
	// BannedHosts lists cluster host indices no candidate may use
	// (cordoned hosts). The ban is enforced at the candidate-generation
	// substrate, so every strategy — and any placement validated through
	// the core, including a WarmStart incumbent — respects it. An
	// incumbent touching a banned host fails ValidPlacement and the
	// warm start degrades to its inner strategy. Empty or nil changes
	// nothing, including rng consumption.
	BannedHosts []int
}

// SearchResult is the outcome of a Search run.
type SearchResult struct {
	Placement sim.Placement
	// Costs is the full predicted cost vector of Placement, all five
	// fields, equal to PredictOne of it.
	Costs PredCosts
	// Index is the ordinal of the chosen placement in the stream of
	// scored candidates (0 = first candidate examined).
	Index int
	// Strategy is the name of the strategy that produced the result.
	Strategy string
	// Rounds is the number of generate->score->prune rounds executed.
	Rounds int
	// Examined is the number of distinct placements scored.
	Examined int
	// Filtered counts examined candidates removed before selection: by
	// the sanity check (predicted failure or backpressure) or because
	// their prediction errored. Errored is the error subset.
	Filtered int
	Errored  int
	// Complete reports that the strategy provably covered the entire
	// valid-placement space within the budget (only Exhaustive sets it).
	Complete bool
	// Cancelled reports that the search context was cancelled before the
	// budget ran out; the result is the best candidate scored so far (the
	// partial incumbent).
	Cancelled bool
	// Telemetry holds per-round stats when SearchOptions.Telemetry was
	// set; nil otherwise.
	Telemetry []RoundStats
}

// Scored is one scored candidate returned by Core.ScoreRound.
type Scored struct {
	// Placement is the core's own copy of a scored candidate, valid for
	// the rest of the search. A skipped one's is the caller's slice, which
	// a strategy must not keep: it may be scratch the strategy's next
	// round overwrites.
	Placement sim.Placement
	// Costs holds what the search's objective reads (Objective.Reads): the
	// cost it ranks by, Success and Backpressured. A search fills no other
	// field, so a strategy ranks by Score and Sane and must not read the
	// rest. The chosen placement's vector is completed once, in
	// SearchResult.Costs.
	Costs PredCosts
	// Err is the prediction error, if any.
	Err error
	// Score is the objective's scalar score (lower is better).
	Score float64
	// Sane reports the paper's sanity check: predicted success without
	// backpressure.
	Sane bool
	// Skipped marks candidates dropped unscored because the budget was
	// exhausted.
	Skipped bool
}

// betterThan ranks scored candidates for pruning decisions: sane
// candidates order by score, non-sane scored ones come after every sane
// one, errored/skipped ones rank last. Ties are not better, so stable
// selection loops keep the earlier candidate.
func (s *Scored) betterThan(t *Scored) bool {
	sc, tc := s.class(), t.class()
	if sc != tc {
		return sc < tc
	}
	if sc == 2 {
		return false
	}
	return s.Score < t.Score
}

func (s *Scored) class() int {
	switch {
	case s.Skipped || s.Err != nil:
		return 2
	case s.Sane:
		return 0
	default:
		return 1
	}
}

// Strategy is a pluggable placement search algorithm. Implementations
// stream candidate batches into the shared budgeted Core and are expected
// to stop once the core is Exhausted. Run must be deterministic given the
// core's rng state; it is invoked on a single goroutine (scoring
// parallelism lives inside the core).
type Strategy interface {
	// Name is the stable identifier used by the CLI, the serve API and
	// search results.
	Name() string
	// Run drives candidate generation against the core. It should return
	// an error only when the search cannot produce any candidate at all.
	Run(co *Core) error
}

// Core is the shared budgeted search core: it dedups streamed candidates
// by a hash of the placement, scores fresh ones through the batched
// worker pool, tracks the best placement seen under the objective (with
// the paper's sanity filter and deterministic lowest-index tie-breaks),
// and enforces the candidate/round budget. What it keeps of a candidate
// (its placement, its index entry, its record) is cut from storage sized
// to the budget when the search starts, and a round's buffers are the
// core's own, so a round allocates nothing per candidate.
type Core struct {
	ctx     context.Context
	pred    Predictor
	a       *stream.Analysis
	k       hardware.Checked
	obj     Objective
	budget  Budget
	workers int
	rng     *rand.Rand
	gen     *generator

	// sess is the search's scoring session, opened by the first round and
	// kept: the query and every host are featurized once per search, and
	// every round is scored by the same weight snapshot, so
	// the incumbent is never compared against another model's scores.
	sess TileScorer

	// kept.list[i] is the placement of records[i]; past the records it
	// holds the current round's fresh candidates, scored as
	// kept.list[len(records):].
	kept    batch
	index   candIndex // placement -> index into kept.list
	records []Scored

	// A round's buffers, reused by the next: the result, the fresh
	// candidates' costs and errors and the result slot of each (sized to
	// the budget), and the duplicates of fresh ones resolved after
	// scoring.
	out      []Scored
	costs    []PredCosts
	errs     []error
	freshOut []int
	dups     []pendingDup

	rounds   int
	filtered int
	errored  int
	firstErr error

	collectRounds bool
	telemetry     []RoundStats

	bestIdx     int
	fallbackIdx int
	complete    bool
}

func newCore(ctx context.Context, pred Predictor, a *stream.Analysis, k hardware.Checked, obj Objective, budget Budget, opts SearchOptions) *Core {
	gen := newGenerator(a.Query(), a.Topo, k)
	gen.ban(opts.BannedHosts)
	budget = budget.withDefaults()
	return &Core{
		ctx:           ctx,
		pred:          pred,
		a:             a,
		k:             k,
		obj:           obj,
		budget:        budget,
		workers:       opts.Workers,
		rng:           rand.New(rand.NewSource(opts.Seed)),
		gen:           gen,
		kept:          newBatch(budget.MaxCandidates, a.Query().NumOps()),
		index:         newCandIndex(budget.MaxCandidates),
		records:       make([]Scored, 0, budget.MaxCandidates),
		costs:         make([]PredCosts, 0, budget.MaxCandidates),
		errs:          make([]error, 0, budget.MaxCandidates),
		freshOut:      make([]int, 0, budget.MaxCandidates),
		bestIdx:       -1,
		fallbackIdx:   -1,
		collectRounds: opts.Telemetry,
	}
}

// Query returns the query under placement.
func (co *Core) Query() *stream.Query { return co.a.Query() }

// Rng returns the seeded random source shared by the whole search run.
func (co *Core) Rng() *rand.Rand { return co.rng }

// TopoOrder returns the query's stream.Topology order, derived once per
// search: of the operators whose producers are all placed, the lowest
// index first.
func (co *Core) TopoOrder() []int { return co.gen.topo.Order() }

// Remaining returns how many more candidates the budget admits.
func (co *Core) Remaining() int { return co.budget.MaxCandidates - len(co.records) }

// Examined returns the number of distinct candidates scored so far.
func (co *Core) Examined() int { return len(co.records) }

// Rounds returns the number of scoring rounds executed so far.
func (co *Core) Rounds() int { return co.rounds }

// Exhausted reports whether the budget admits no further scoring. A
// cancelled search context counts as exhaustion, so every strategy's
// round loop stops at its next budget check without any strategy-side
// context plumbing.
func (co *Core) Exhausted() bool {
	if co.Cancelled() {
		return true
	}
	if co.Remaining() <= 0 {
		return true
	}
	return co.budget.MaxRounds > 0 && co.rounds >= co.budget.MaxRounds
}

// Cancelled reports whether the search context was cancelled.
func (co *Core) Cancelled() bool {
	return co.ctx != nil && co.ctx.Err() != nil
}

// Seen reports whether p was already streamed into a scoring round.
func (co *Core) Seen(p sim.Placement) bool {
	i, _ := co.index.lookup(co.kept.list, p)
	return i >= 0
}

// RandomPlacement draws one valid placement with the core's rng. The
// returned slice is scratch shared with the next draw: copy to retain.
func (co *Core) RandomPlacement() (sim.Placement, bool) {
	return co.gen.randomValid(co.rng)
}

// ValidPlacement reports whether p satisfies the Figure 5 rules.
func (co *Core) ValidPlacement(p sim.Placement) bool { return co.gen.validate(p) }

// PrefixChoices appends to dst the valid host choices for the operator at
// topological position d, given the placement of the preceding positions.
func (co *Core) PrefixChoices(dst []int, p sim.Placement, d int) []int {
	co.gen.replay(p, d)
	return append(dst, co.gen.choicesFor(p, co.gen.topo.Order()[d])...)
}

// CompleteGreedy extends a placement prefix covering the first d
// topological positions into a full valid placement (greedy co-location
// completion); see generator.completeGreedy.
func (co *Core) CompleteGreedy(p sim.Placement, d int) (sim.Placement, bool) {
	return co.gen.completeGreedy(nil, p, d)
}

// MarkComplete records that the strategy covered the entire
// valid-placement space (Exhaustive only).
func (co *Core) MarkComplete() { co.complete = true }

// ScoreRound streams one batch of candidates through the engine:
// duplicates return their cached record without consuming budget, fresh
// candidates are scored together through the batched worker pool (one
// generate->score->prune round), and candidates beyond the budget come
// back with Skipped set, uncopied: their Placement is the caller's slice,
// not to be kept. The returned slice is aligned with cands and is the
// core's: the next round overwrites it. A
// round asks the scoring session only for the costs the objective reads
// (see Scored.Costs): every metric has its own ensemble, and the passes
// of the two metrics no ranking decision looks at are two fifths of a
// round's inference.
func (co *Core) ScoreRound(cands []sim.Placement) []Scored {
	co.out = slices.Grow(co.out[:0], len(cands))[:len(cands)]
	out := co.out
	roundOpen := (co.budget.MaxRounds <= 0 || co.rounds < co.budget.MaxRounds) && !co.Cancelled()
	base := len(co.records)
	nDups, nSkipped := 0, 0
	filteredBefore, erroredBefore := co.filtered, co.errored
	co.freshOut, co.dups = co.freshOut[:0], co.dups[:0]
	for i, p := range cands {
		ri, slot := co.index.lookup(co.kept.list, p)
		if ri >= 0 {
			nDups++
			if ri < base {
				out[i] = co.records[ri]
			} else {
				// A duplicate of a fresh candidate earlier in this round:
				// its record exists only after the batch is scored.
				co.dups = append(co.dups, pendingDup{out: i, rec: ri})
			}
			continue
		}
		if !roundOpen || len(co.kept.list) >= co.budget.MaxCandidates {
			nSkipped++
			out[i] = Scored{Placement: p, Skipped: true}
			continue
		}
		co.index.add(slot, len(co.kept.list))
		co.kept.add(p)
		co.freshOut = append(co.freshOut, i)
	}
	if fresh := co.kept.list[base:]; len(fresh) > 0 {
		roundStart := time.Now()
		if co.sess == nil {
			co.sess = openSession(co.pred, co.a, co.k)
		}
		costs, errs := co.costs[:len(fresh)], co.errs[:len(fresh)]
		clear(costs)
		clear(errs)
		scoreTiled(tiling{co.ctx, co.sess, fresh, co.obj.Reads(), costs, errs}, co.workers)
		co.rounds++
		for j, p := range fresh {
			rec := Scored{Placement: p}
			if errs[j] != nil {
				rec.Err = errs[j]
				co.errored++
				co.filtered++
				if co.firstErr == nil {
					co.firstErr = fmt.Errorf("placement: predicting candidate %d: %w", base+j, errs[j])
				}
			} else {
				rec.Costs = costs[j]
				rec.Score = co.obj.Score(costs[j])
				rec.Sane = sane(costs[j])
				if !rec.Sane {
					co.filtered++
				}
				if co.fallbackIdx < 0 || rec.Score < co.records[co.fallbackIdx].Score {
					co.fallbackIdx = base + j
				}
				if rec.Sane && (co.bestIdx < 0 || rec.Score < co.records[co.bestIdx].Score) {
					co.bestIdx = base + j
				}
			}
			co.records = append(co.records, rec)
			out[co.freshOut[j]] = rec
		}
		elapsed := time.Since(roundStart)
		m := searchMet()
		m.rounds.Inc()
		m.scored.Add(int64(len(fresh)))
		m.roundSeconds.Record(elapsed.Nanoseconds())
		m.filtered.Add(int64(co.filtered - filteredBefore))
		m.errored.Add(int64(co.errored - erroredBefore))
		if co.collectRounds {
			rs := RoundStats{
				Round:      co.rounds,
				Submitted:  len(cands),
				Fresh:      len(fresh),
				Duplicates: nDups,
				Skipped:    nSkipped,
				Filtered:   co.filtered - filteredBefore,
				Errored:    co.errored - erroredBefore,
				BestIndex:  -1,
				ElapsedNS:  elapsed.Nanoseconds(),
			}
			if idx := co.incumbent(); idx >= 0 {
				rs.BestIndex = idx
				rs.BestScore = co.records[idx].Score
			}
			co.telemetry = append(co.telemetry, rs)
		}
	}
	if nDups > 0 || nSkipped > 0 {
		m := searchMet()
		m.dups.Add(int64(nDups))
		m.skipped.Add(int64(nSkipped))
	}
	// Resolve intra-round duplicates now that their records exist.
	for _, d := range co.dups {
		out[d.out] = co.records[d.rec]
	}
	return out
}

// pendingDup is a duplicate of a fresh candidate of the same round: its
// result slot and the record it resolves to.
type pendingDup struct {
	out, rec int
}

// batch is a list of placement copies cut from one slab: the placements
// a search keeps, or a strategy's candidates for one round, whose slab the
// next round reuses once the core has copied what it keeps.
type batch struct {
	list []sim.Placement
	slab []int
	n    int
}

// newBatch returns a batch of up to size placements of n operators.
func newBatch(size, n int) batch {
	return batch{list: make([]sim.Placement, 0, size), slab: make([]int, size*n), n: n}
}

// add appends a copy of p to a batch that is not full. A placement of
// another length than n (which its scoring will refuse) is copied on its
// own.
func (b *batch) add(p sim.Placement) {
	if len(p) != b.n {
		b.list = append(b.list, slices.Clone(p))
		return
	}
	at := len(b.list) * b.n
	cp := b.slab[at : at+b.n : at+b.n]
	copy(cp, p)
	b.list = append(b.list, cp)
}

// reset empties the batch for the next round.
func (b *batch) reset() { b.list = b.list[:0] }

// incumbent returns the index of the current best candidate under the
// selection rule (best sane, else cheapest scored), or -1.
func (co *Core) incumbent() int {
	if co.bestIdx >= 0 {
		return co.bestIdx
	}
	return co.fallbackIdx
}

// result packages the core's state into a SearchResult. The rounds filled
// only the costs the objective reads, so the chosen placement's vector is
// completed here: one tile of one asking for the complement, written into
// the costs it already has. Each ensemble's pass is independent of the
// others, so the five fields equal PredictOne of the placement; a failing
// completion fails the search rather than report a cost nobody predicted.
func (co *Core) result(strategy string) (*SearchResult, error) {
	idx := co.bestIdx
	if idx < 0 {
		// Everything filtered: fall back to the cheapest scored prediction.
		idx = co.fallbackIdx
	}
	if idx < 0 {
		err := co.firstErr
		if err == nil && co.Cancelled() {
			err = co.ctx.Err()
		}
		if err == nil {
			err = fmt.Errorf("placement: no valid placement candidates for %d operators on %d hosts",
				co.Query().NumOps(), co.gen.nHosts)
		}
		return nil, fmt.Errorf("placement: %s search scored no candidates: %w", strategy, err)
	}
	rec := co.records[idx]
	costs := append(co.costs[:0], rec.Costs)
	if err := co.sess.ScoreTile(co.kept.list[idx:idx+1], AllCosts&^co.obj.Reads(), costs); err != nil {
		return nil, fmt.Errorf("placement: %s search: completing the costs of the chosen placement: %w", strategy, err)
	}
	rec.Costs = costs[0]
	// The winner is copied out of the slab, which the result would
	// otherwise keep alive whole.
	return &SearchResult{
		Placement: slices.Clone(rec.Placement),
		Costs:     rec.Costs,
		Index:     idx,
		Strategy:  strategy,
		Rounds:    co.rounds,
		Examined:  len(co.records),
		Filtered:  co.filtered,
		Errored:   co.errored,
		Complete:  co.complete,
		Cancelled: co.Cancelled(),
		Telemetry: co.telemetry,
	}, nil
}

// Search runs one placement search: the strategy streams candidate
// batches into the budgeted core, the core scores them with the predictor
// (batched, worker-pooled, sanity-filtered) and the best placement under
// the objective is returned. A nil strategy selects RandomSample. The
// result is deterministic for a fixed seed at any pool size.
//
// Cancelling ctx stops the round loop and the batched scorer at the next
// candidate boundary and returns the best candidate scored so far
// (SearchResult.Cancelled is set). Only a search cancelled before scoring
// any candidate fails, wrapping ctx.Err().
func Search(ctx context.Context, pred Predictor, a *stream.Analysis, k hardware.Checked, strat Strategy, obj Objective, budget Budget, opts SearchOptions) (*SearchResult, error) {
	if strat == nil {
		strat = RandomSample{}
	}
	co := newCore(ctx, pred, a, k, obj, budget, opts)
	err := strat.Run(co)
	co.gen.release()
	if err != nil && len(co.records) == 0 {
		return nil, err
	}
	res, err := co.result(strat.Name())
	if err == nil {
		countRun(strat.Name())
	}
	return res, err
}

// ParseStrategy resolves a strategy name (as used by the CLI -strategy
// flag and the serve API "strategy" field) to its default-configured
// implementation.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "random", "random-sample":
		return RandomSample{}, nil
	case "exhaustive":
		return Exhaustive{}, nil
	case "beam":
		return Beam{}, nil
	case "local-search", "local", "hill-climb":
		return LocalSearch{}, nil
	}
	return nil, fmt.Errorf("placement: unknown strategy %q (want one of %v)", name, StrategyNames())
}

// StrategyNames lists the canonical built-in strategy names.
func StrategyNames() []string {
	return []string{"random", "exhaustive", "beam", "local-search"}
}
