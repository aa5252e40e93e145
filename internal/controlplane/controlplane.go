// Package controlplane is the placement control plane: the
// monitor -> detect -> re-optimize -> migrate loop that keeps operator
// placements good as edge-cloud conditions shift (the dynamic half of
// the COSTREAM workflow; the zero-shot cost model makes continuous
// re-scoring cheap enough to run it in a loop).
//
// The package splits into two layers:
//
//   - Policy is the pure decision kernel: given one Deployment and a
//     cluster View it observes live metrics through a MetricFeed,
//     classifies violations (drift by the q-errors Observe records,
//     dead or cordoned hosts, observed failures), re-optimizes
//     with the search engine warm-started from the incumbent
//     (placement.WarmStart) and gates migrations through
//     placement.Hysteresis. Hosts that may not run operators — cordoned
//     or down — are banned at the candidate-generation substrate
//     (SearchOptions.BannedHosts), so every search strategy respects
//     them.
//   - Plane is the long-running registry around that kernel: deployment
//     CRUD, host cordon/drain/uncordon state, periodic control ticks and
//     bounded per-deployment history. costream-serve exposes it as
//     /v1/deployments and /v1/hosts; costream-ctl speaks to that API.
//
// internal/fleet drives the same Policy from its scenario scripts, over
// its whole fleet with the hosts that are down banned and named in
// View.Down, so the fleet simulator and the serving path heal with
// identical logic; its closing observation is Observe.
package controlplane

import (
	"context"
	"fmt"
	"math"
	"slices"

	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/qerror"
	"costream/internal/sim"
	"costream/internal/stream"
)

// Policy defaults, applied by Policy.Resolved.
const (
	DefaultQErrorThreshold = 2.0
	DefaultSearchBudget    = 32
)

// Violation kinds reported by Policy.Heal (Decision.Violation) and
// counted by the costream_controlplane_violations_total{kind} family.
const (
	ViolationUndeployed      = "undeployed"
	ViolationDeadHost        = "dead-host"
	ViolationCordonedHost    = "cordoned-host"
	ViolationObservedFailure = "observed-failure"
	ViolationQErrorDrift     = "qerror-drift"
)

// Actions reported by Policy decisions. Suppressed decisions carry a
// "suppressed: <reason>" action instead.
const (
	ActionDeployed   = "deployed"
	ActionMigrated   = "migrated"
	ActionReplaced   = "replaced"
	ActionRedeployed = "redeployed"
	ActionUndeployed = "undeployed"

	suppressedPrefix = "suppressed: "
)

// DeriveSeed spreads a base seed over (stage, index) pairs; stage 0 is
// the deploy step, stage k the k-th control tick or script event, so
// every search and observation draws from its own deterministic stream.
func DeriveSeed(base int64, stage, i int) int64 {
	return base*1_000_003 + int64(stage)*8191 + int64(i) + 1
}

// ObservationSeed is the metric-feed seed of one (stage, index) pair:
// DeriveSeed over a base of its own, so observation noise never shares
// a stream with the search seeded by DeriveSeed(base, stage, i).
func ObservationSeed(base int64, stage, i int) int64 {
	return DeriveSeed(base^0x51ED2701, stage, i)
}

// MetricFeed supplies the live runtime statistics one control decision
// observes for an incumbent placement. The production feed is SimFeed
// (the execution simulator standing in for a real cluster); tests plug
// in fakes; each observes an analysis its caller made. A heal pass (Pass)
// decides its deployments in parallel and calls Observe concurrently, so
// a feed must be safe for concurrent use.
type MetricFeed interface {
	Observe(a *stream.Analysis, k hardware.Checked, p sim.Placement) (*sim.Metrics, error)
}

// SimFeed observes placements by running the execution simulator.
type SimFeed struct {
	Cfg sim.Config
}

// Observe implements MetricFeed.
func (f SimFeed) Observe(a *stream.Analysis, k hardware.Checked, p sim.Placement) (*sim.Metrics, error) {
	return sim.Run(a, k, p, f.Cfg)
}

// View is the cluster one control decision runs against plus the host
// indices banned from candidate generation: hosts cordoned by an
// operator or down. A banned host is both a violation trigger (an
// incumbent touching one is force-replaced) and a search constraint (no
// challenger may use one). Down names those of the banned hosts that are
// down rather than cordoned, so an incumbent on one reads as a dead-host
// violation, not a cordoned-host one; every host in Down must also be in
// Banned.
type View struct {
	Cluster hardware.Checked
	Banned  []int
	Down    []int
}

// anySchedulable reports whether some host is not banned. Fewer ban
// entries than hosts cannot cover them all, so only a view banning at
// least as many entries as it has hosts counts the distinct ones.
func (v View) anySchedulable() bool {
	n := len(v.Cluster.Cluster().Hosts)
	if len(v.Banned) < n {
		return true
	}
	banned := make([]bool, n)
	for _, h := range v.Banned {
		if h >= 0 && h < n {
			banned[h] = true
		}
	}
	return slices.Contains(banned, false)
}

// Deployment is one query's live control-plane state: its analysis, made
// once where the query entered, and a Placement in View.Cluster host
// indices, each one a host of that cluster; a host that went down stays
// in the cluster and is named by View.Down.
type Deployment struct {
	ID        string
	Query     *stream.Analysis
	Placement sim.Placement
	Predicted placement.PredCosts
	LastMoveS float64
	Deployed  bool
}

// Decision is the outcome of one Policy.Heal pass over one deployment.
type Decision struct {
	// Violation classifies why the loop engaged ("" when healthy):
	// ViolationUndeployed, ViolationDeadHost, ViolationCordonedHost,
	// ViolationObservedFailure or ViolationQErrorDrift.
	Violation string
	// Action is what the loop did ("" when healthy): ActionMigrated,
	// ActionReplaced, ActionRedeployed, ActionUndeployed or
	// "suppressed: <reason>".
	Action string
	// Observed reports that a metric-feed observation ran; the q-error
	// and latency fields below are only meaningful when set.
	Observed bool
	// QErrThroughput/QErrProcLatency are the observed-vs-predicted
	// q-errors of this pass (each >= 1).
	QErrThroughput  float64
	QErrProcLatency float64
	// PredLatencyMS is the processing latency predicted when the
	// incumbent was activated (captured before any re-basing);
	// ObsLatencyMS the latency observed this pass.
	PredLatencyMS float64
	ObsLatencyMS  float64
}

// Suppressed reports that the pass detected a violation but hysteresis
// (or an unchanged search result) kept the incumbent.
func (d Decision) Suppressed() bool {
	return len(d.Action) >= len(suppressedPrefix) && d.Action[:len(suppressedPrefix)] == suppressedPrefix
}

// Moved reports that the pass activated a new placement.
func (d Decision) Moved() bool {
	switch d.Action {
	case ActionMigrated, ActionReplaced, ActionRedeployed:
		return true
	}
	return false
}

// Policy is the control plane's decision kernel: how to observe, when a
// deployment counts as violated, and how re-optimization and migration
// gating work. The zero value is unusable; Predictor is required, the
// other fields default via Resolved.
type Policy struct {
	// Predictor scores placements during search, drift checks and
	// incumbent re-scoring.
	Predictor placement.Predictor
	// QErrorThreshold is the q-error above which an observation counts
	// as drift (0 selects DefaultQErrorThreshold).
	QErrorThreshold float64
	// Hysteresis gates drift migrations. The zero value accepts any
	// strict improvement with no cooldown.
	Hysteresis placement.Hysteresis
	// Budget bounds each re-optimization search (unset selects
	// DefaultSearchBudget candidates).
	Budget placement.Budget
	// Strategy is the inner search strategy; re-optimizations wrap it in
	// placement.WarmStart seeded with the incumbent. Nil selects
	// LocalSearch.
	Strategy placement.Strategy
	// Objective ranks placements (zero value: min processing latency).
	Objective placement.Objective
}

// Resolved returns p with every unset field at its default. Deploy and
// Heal run on it; a caller that reports the effective policy reads it.
func (p Policy) Resolved() Policy {
	if p.QErrorThreshold == 0 {
		p.QErrorThreshold = DefaultQErrorThreshold
	}
	if p.Budget.MaxCandidates <= 0 {
		p.Budget.MaxCandidates = DefaultSearchBudget
	}
	if p.Strategy == nil {
		p.Strategy = placement.LocalSearch{}
	}
	return p
}

// Deploy runs the initial placement search for d on the view (fresh
// search, no warm start — there is no incumbent) and activates the
// result. On error the deployment is left untouched.
func (p Policy) Deploy(ctx context.Context, d *Deployment, v View, opts placement.SearchOptions) error {
	p = p.Resolved()
	opts.BannedHosts = v.Banned
	res, err := placement.Search(ctx, p.Predictor, d.Query, v.Cluster, p.Strategy, p.Objective, p.Budget, opts)
	if err != nil {
		return err
	}
	d.Placement = append(sim.Placement(nil), res.Placement...)
	d.Predicted = res.Costs
	d.Deployed = true
	return nil
}

// Observe runs d's incumbent placement on cluster k through feed, with
// effQ analysing the query under current load, and compares what it
// observes with the costs predicted when the placement was activated: the
// throughput and processing-latency q-errors (qerror.Q), which it records
// in costream_monitor_qerror, a failed run's too. The decision it returns
// carries the observation only — Observed, both q-errors, the predicted
// and the observed processing latency — and no violation or action:
// judging the observation is Heal's. The metrics come back beside it. d
// is not written.
func Observe(d *Deployment, k hardware.Checked, effQ *stream.Analysis, feed MetricFeed) (Decision, *sim.Metrics, error) {
	obs, err := feed.Observe(effQ, k, d.Placement)
	if err != nil {
		return Decision{}, nil, fmt.Errorf("controlplane: observing %s: %w", d.ID, err)
	}
	qT := qerror.Q(obs.ThroughputTPS, d.Predicted.ThroughputTPS)
	qL := qerror.Q(obs.ProcLatencyMS, d.Predicted.ProcLatencyMS)
	m := met()
	m.qerrThroughput.Record(milli(qT))
	m.qerrProcLatency.Record(milli(qL))
	return Decision{Observed: true, QErrThroughput: qT, QErrProcLatency: qL,
		PredLatencyMS: d.Predicted.ProcLatencyMS, ObsLatencyMS: obs.ProcLatencyMS}, obs, nil
}

// milli converts a q-error to costream_monitor_qerror's milli-units. A
// q-error past the int64 range (+Inf too) saturates into the top bucket.
func milli(q float64) int64 {
	if v := q * 1e3; v < math.MaxInt64 {
		return int64(v)
	}
	return math.MaxInt64
}

// Heal runs one monitor -> detect -> re-optimize -> migrate pass over d
// at control clock nowS. effQ analyses the query under current load (nil
// uses d.Query); the pass's observation, search and incumbent re-score
// share it, so drift reflects live conditions. The deployment is mutated
// in place only when the pass reaches a decision: a cancelled ctx —
// before the pass, or during a re-optimization that scored nothing —
// returns an error wrapping ctx.Err() and naming d, with d untouched, so
// callers never see torn state.
// A pass scores each placement once: when the search keeps the
// incumbent, its SearchResult.Costs re-base d.Predicted, and the
// incumbent is re-scored with PredictOne only against a challenger that
// differs.
func (p Policy) Heal(ctx context.Context, d *Deployment, v View, effQ *stream.Analysis, feed MetricFeed, nowS float64, opts placement.SearchOptions) (Decision, error) {
	if err := ctx.Err(); err != nil {
		return Decision{}, fmt.Errorf("controlplane: healing %s: %w", d.ID, err)
	}
	p = p.Resolved()
	if effQ == nil {
		effQ = d.Query
	}
	var dec Decision
	forced := false
	var incumbent sim.Placement
	switch {
	case !d.Deployed:
		dec.Violation = ViolationUndeployed
		forced = true
	case touchesBanned(d.Placement, v.Down):
		dec.Violation = ViolationDeadHost
		forced = true
	case touchesBanned(d.Placement, v.Banned):
		dec.Violation = ViolationCordonedHost
		forced = true
	default:
		var obs *sim.Metrics
		var err error
		if dec, obs, err = Observe(d, v.Cluster, effQ, feed); err != nil {
			return dec, err
		}
		switch {
		case !obs.Success:
			dec.Violation = ViolationObservedFailure
		case dec.QErrThroughput > p.QErrorThreshold || dec.QErrProcLatency > p.QErrorThreshold:
			dec.Violation = ViolationQErrorDrift
		}
		incumbent = d.Placement
	}
	if dec.Violation == "" {
		return dec, nil
	}
	met().violations[dec.Violation].Inc()

	if !v.anySchedulable() {
		d.Deployed = false
		d.Placement = nil
		dec.Action = ActionUndeployed
		return dec, nil
	}
	opts.BannedHosts = v.Banned
	strat := placement.Strategy(placement.WarmStart{Incumbent: incumbent, Inner: p.Strategy})
	res, err := placement.Search(ctx, p.Predictor, effQ, v.Cluster, strat, p.Objective, p.Budget, opts)
	if err != nil {
		if ctx.Err() != nil {
			return dec, fmt.Errorf("controlplane: healing %s: %w", d.ID, ctx.Err())
		}
		// No valid placement on the schedulable hosts: undeploy.
		d.Deployed = false
		d.Placement = nil
		dec.Action = ActionUndeployed
		return dec, nil
	}
	challenger := append(sim.Placement(nil), res.Placement...)
	if forced {
		d.Placement = challenger
		d.Predicted = res.Costs
		d.LastMoveS = nowS
		if d.Deployed {
			dec.Action = ActionReplaced
		} else {
			dec.Action = ActionRedeployed
			d.Deployed = true
		}
		met().migrations.Inc()
		return dec, nil
	}
	if slices.Equal(challenger, incumbent) {
		// res.Costs is the incumbent's whole vector, equal to PredictOne
		// of it: re-base on it without a second scoring session.
		dec.Action = suppressedPrefix + "search kept the incumbent"
		d.Predicted = res.Costs
		met().suppressed.Inc()
		return dec, nil
	}
	incCosts, incErr := placement.PredictOne(p.Predictor, effQ, v.Cluster, incumbent)
	switch {
	case incErr != nil:
		// The incumbent no longer even scores: take the challenger.
		d.Placement = challenger
		d.Predicted = res.Costs
		d.LastMoveS = nowS
		dec.Action = ActionMigrated
		met().migrations.Inc()
	default:
		ok, reason := p.Hysteresis.ShouldMigrate(p.Objective.Score(incCosts), p.Objective.Score(res.Costs), nowS, d.LastMoveS)
		if ok {
			d.Placement = challenger
			d.Predicted = res.Costs
			d.LastMoveS = nowS
			dec.Action = ActionMigrated
			met().migrations.Inc()
		} else {
			dec.Action = suppressedPrefix + reason
			// Re-base the prediction on current conditions so a tolerated
			// drift does not re-fire forever.
			d.Predicted = incCosts
			met().suppressed.Inc()
		}
	}
	return dec, nil
}

// touchesBanned reports whether p uses any banned host index.
func touchesBanned(p sim.Placement, banned []int) bool {
	return slices.ContainsFunc(p, func(h int) bool { return slices.Contains(banned, h) })
}
