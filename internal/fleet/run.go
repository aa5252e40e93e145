package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"costream/internal/controlplane"
	"costream/internal/placement"
	"costream/internal/scenario"
	"costream/internal/sim"
	"costream/internal/stream"
)

// RunOptions tunes a scenario run without touching the scenario's
// deterministic surface.
type RunOptions struct {
	// Predictor scores placements during search and drift checks. Nil
	// selects a simulator oracle (placement.SimOracle) over the run's
	// sim config with a prediction-private noise seed, so observed costs
	// genuinely drift from predictions as the fleet degrades.
	Predictor placement.Predictor
	// SimConfig overrides the observation simulator config. Nil selects
	// a short fleet window (30 s + 5 s warm-up) — scenario runs simulate
	// every deployment after every event, so the corpus default would be
	// needlessly slow. Its Seed field is ignored: observation seeds are
	// derived per (event, query) from the scenario seed.
	SimConfig *sim.Config
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// Report is the JSON run report: the event timeline with per-query
// q-error trajectories and recovery actions, aggregate totals, and the
// assertion outcomes. It contains no wall-clock data, so a fixed
// scenario yields a byte-identical marshaled report.
type Report struct {
	Scenario  string  `json:"scenario"`
	Seed      int64   `json:"seed"`
	Hosts     int     `json:"hosts"`
	Zones     int     `json:"zones"`
	Queries   int     `json:"queries"`
	Strategy  string  `json:"strategy"`
	Objective string  `json:"objective"`
	QErrorMax float64 `json:"qerror_threshold"`

	Timeline   []TimelineEntry   `json:"timeline"`
	Totals     Totals            `json:"totals"`
	Assertions []AssertionResult `json:"assertions"`
	Pass       bool              `json:"pass"`
}

// TimelineEntry is the fleet and deployment state after one script step:
// the synthetic "deploy" step at the clock origin, one entry per script
// event, and the closing "end" observation.
type TimelineEntry struct {
	AtS   float64 `json:"at_s"`
	Event string  `json:"event"`
	Zone  string  `json:"zone,omitempty"`
	// Affected lists the host IDs the event touched (crashed, recovered,
	// degraded).
	Affected []string `json:"affected_hosts,omitempty"`
	// Factor echoes the event's degradation/spike factor when set.
	Factor     float64 `json:"factor,omitempty"`
	AliveHosts int     `json:"alive_hosts"`
	// LoadFactor is the cumulative source-rate multiplier in force.
	LoadFactor float64       `json:"load_factor"`
	Queries    []QueryStatus `json:"queries"`
}

// QueryStatus is one deployment's state after the recovery pass of one
// timeline step.
type QueryStatus struct {
	ID string `json:"id"`
	// Hosts is the placement as host IDs, operator by operator; empty
	// when the query is undeployed.
	Hosts []string `json:"hosts,omitempty"`
	// QErrThroughput/QErrProcLatency are the observed-vs-predicted
	// q-errors measured this step (0 when no observation ran, e.g. a
	// dead placement).
	QErrThroughput  float64 `json:"qerr_throughput,omitempty"`
	QErrProcLatency float64 `json:"qerr_proc_latency,omitempty"`
	// PredLatencyMS is the processing latency predicted when the current
	// placement was activated; ObsLatencyMS the latency observed this
	// step.
	PredLatencyMS float64 `json:"pred_latency_ms,omitempty"`
	ObsLatencyMS  float64 `json:"obs_latency_ms,omitempty"`
	// Violation classifies why the recovery loop engaged: "dead-host",
	// "qerror-drift", "observed-failure" or "undeployed".
	Violation string `json:"violation,omitempty"`
	// Action is what the loop did: "migrated", "replaced",
	// "redeployed", "undeployed" or "suppressed: <reason>".
	Action string `json:"action,omitempty"`
}

// Totals aggregates the run.
type Totals struct {
	Events int `json:"events"`
	// Violations counts query-step states where the recovery loop
	// engaged (drift, observed failure, or a dead placement).
	Violations int `json:"violations"`
	// Migrations counts hysteresis-approved drift migrations.
	Migrations int `json:"migrations"`
	// Replacements counts forced re-placements off dead hosts
	// (including successful redeployments of undeployed queries).
	Replacements int `json:"replacements"`
	// Suppressed counts migrations hysteresis rejected.
	Suppressed int `json:"suppressed"`
}

// add counts one event step: its rows with a violation, and among those
// the migrations, replacements and suppressed migrations.
func (t *Totals) add(rows []QueryStatus) {
	t.Events++
	for _, st := range rows {
		if st.Violation == "" {
			continue
		}
		t.Violations++
		switch act := (controlplane.Decision{Action: st.Action}); {
		case act.Action == controlplane.ActionMigrated:
			t.Migrations++
		case act.Moved():
			t.Replacements++
		case act.Suppressed():
			t.Suppressed++
		}
	}
}

// AssertionResult is one evaluated end-state assertion.
type AssertionResult struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// resolveRecovery translates the scenario's recovery spec into the
// control-plane decision kernel the run drives, resolved to the
// defaults the policy applies. All self-healing decisions (violation
// classification, warm-started re-optimization, hysteresis gating) live
// in internal/controlplane; the fleet only scripts events and renders
// the report.
func (sc *Scenario) resolveRecovery() (controlplane.Policy, error) {
	r := sc.Recovery
	pol := controlplane.Policy{
		QErrorThreshold: r.QErrorThreshold,
		Hysteresis:      placement.Hysteresis{MinImprovement: r.MinImprovement, CooldownS: r.CooldownS},
		Budget:          placement.Budget{MaxCandidates: r.Budget},
	}
	if r.MinImprovement == 0 {
		pol.Hysteresis.MinImprovement = defaultMinImprovement
	}
	// An empty name keeps the policy's default, set by Resolved:
	// ParseStrategy would read it as random sampling.
	if r.Strategy != "" {
		strat, err := placement.ParseStrategy(r.Strategy)
		if err != nil {
			return controlplane.Policy{}, err
		}
		pol.Strategy = strat
	}
	obj, err := placement.ParseObjective(r.Objective)
	if err != nil {
		return controlplane.Policy{}, err
	}
	pol.Objective = obj
	return pol.Resolved(), nil
}

// scaledQuery returns the analysis of a's query with every source's
// event rate multiplied by factor (a deep clone; a is never mutated).
func scaledQuery(a *stream.Analysis, factor float64) (*stream.Analysis, error) {
	if factor == 1 {
		return a, nil
	}
	c := a.Query().Clone()
	for _, op := range c.Ops {
		if op.Type == stream.OpSource {
			op.EventRate *= factor
		}
	}
	return c.Analyze()
}

func round4(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return -1
	}
	return math.Round(x*1e4) / 1e4
}

// Run executes the scenario: build the fleet, deploy the workload, walk
// the event script with the self-healing recovery loop (each pass
// decided in parallel, committed in deployment order), evaluate the
// assertions. The returned report is deterministic for a fixed scenario
// (at any GOMAXPROCS); ctx cancels long searches mid-run.
func Run(ctx context.Context, sc *Scenario, opts RunOptions) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	pol, err := sc.resolveRecovery()
	if err != nil {
		return nil, err
	}
	simCfg := sim.Config{DurationS: 30, WarmupS: 5, StepS: 0.05, NoiseStd: 0.05}
	if opts.SimConfig != nil {
		simCfg = *opts.SimConfig
	}
	pred := opts.Predictor
	if pred == nil {
		oracleCfg := simCfg
		// The oracle predicts with its own fixed noise stream; observations
		// draw per-event seeds, so predictions do not see observation noise.
		oracleCfg.Seed = controlplane.DeriveSeed(sc.Seed, 0, 0) ^ 0x5DEECE66D
		pred = &placement.SimOracle{Cfg: oracleCfg}
	}
	pol.Predictor = pred

	rng := rand.New(rand.NewSource(sc.Seed))
	fl, err := buildFleet(sc.Fleet, rng)
	if err != nil {
		return nil, err
	}
	wlSeed := sc.Workload.Seed
	if wlSeed == 0 {
		wlSeed = sc.Seed
	}
	recipe := sc.Workload.Recipe
	if recipe == "" {
		recipe = "training"
	}
	sampler, err := scenario.QuerySampler(recipe, wlSeed)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Scenario:  sc.Name,
		Seed:      sc.Seed,
		Hosts:     fl.NumHosts(),
		Zones:     len(sc.Fleet.Zones),
		Queries:   sc.Workload.Queries,
		Strategy:  pol.Strategy.Name(),
		Objective: pol.Objective.String(),
		QErrorMax: pol.QErrorThreshold,
	}
	logf("fleet: %d hosts in %d zones, %d queries (recipe %s)", fl.NumHosts(), rep.Zones, rep.Queries, recipe)

	searchOpts := func(stage, i int) placement.SearchOptions {
		return placement.SearchOptions{Seed: controlplane.DeriveSeed(sc.Seed, stage, i)}
	}
	observe := func(stage, i int) controlplane.SimFeed {
		cfg := simCfg
		cfg.Seed = controlplane.ObservationSeed(sc.Seed, stage, i)
		return controlplane.SimFeed{Cfg: cfg}
	}
	alive := func(v controlplane.View) int { return len(v.Cluster.Cluster().Hosts) - len(v.Banned) }
	loadFactor := 1.0
	deadAfterRecovery := []string(nil)

	// Every stage — the deploy, each event's heal, the closing
	// observation — is one step: one control-plane pass whose decisions
	// run in parallel (controlplane.Pass), committed in deployment order
	// and rendered into entry's rows; the first error in that order fails
	// the run. Deployments hold placements in fleet host indices
	// throughout; eff[i] analyses deployment i's query under current load.
	deps := make([]controlplane.Deployment, sc.Workload.Queries)
	eff := make([]*stream.Analysis, len(deps))
	for i := range deps {
		eff[i] = sampler(i)
		deps[i].ID, deps[i].Query = fmt.Sprintf("q%02d", i), eff[i]
	}
	step := func(entry TimelineEntry, decide func(i int, d *controlplane.Deployment) (controlplane.Decision, error)) error {
		for i, o := range controlplane.Pass(deps, decide) {
			if o.Err != nil {
				return fmt.Errorf("fleet: %s at %vs: %s: %w", entry.Event, entry.AtS, o.Deployment.ID, o.Err)
			}
			d, dec := o.Deployment, o.Decision
			deps[i] = d
			st := QueryStatus{
				ID:              d.ID,
				QErrThroughput:  round4(dec.QErrThroughput),
				QErrProcLatency: round4(dec.QErrProcLatency),
				PredLatencyMS:   round4(dec.PredLatencyMS),
				ObsLatencyMS:    round4(dec.ObsLatencyMS),
				Violation:       dec.Violation,
				Action:          dec.Action,
			}
			if d.Deployed {
				st.Hosts = fl.hostIDs(d.Placement)
				// The no-dead-placements invariant: after a recovery pass
				// no deployment may still reference a dead host.
				deadAfterRecovery = mergeIDs(deadAfterRecovery, fl.deadHosts(d.Placement))
			}
			entry.Queries = append(entry.Queries, st)
		}
		rep.Timeline = append(rep.Timeline, entry)
		return nil
	}

	// Deploy: every query searched fresh on the full healthy fleet.
	v, err := fl.clusterView()
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if err := step(TimelineEntry{AtS: 0, Event: "deploy", AliveHosts: alive(v), LoadFactor: 1},
		func(i int, d *controlplane.Deployment) (controlplane.Decision, error) {
			if err := pol.Deploy(ctx, d, v, searchOpts(0, i)); err != nil {
				return controlplane.Decision{}, err
			}
			return controlplane.Decision{Action: controlplane.ActionDeployed, PredLatencyMS: d.Predicted.ProcLatencyMS}, nil
		}); err != nil {
		return nil, err
	}

	// After every event, the control plane's self-healing pass over every
	// deployment at the event's clock; the stage seeds searches and
	// observations.
	events := sc.sortedEvents()
	now := 0.0
	for k, ev := range events {
		if ev.AtS > now {
			now = ev.AtS
		}
		affected, err := fl.apply(ev, rng)
		if err != nil {
			return nil, err
		}
		if ev.Type == EventLoadSpike {
			loadFactor *= ev.Factor
			for i, d := range deps {
				if eff[i], err = scaledQuery(d.Query, loadFactor); err != nil {
					return nil, fmt.Errorf("fleet: %s at %vs: %s: %w", ev.Type, now, d.ID, err)
				}
			}
		}
		if v, err = fl.clusterView(); err != nil {
			return nil, fmt.Errorf("fleet: %s at %vs: %w", ev.Type, now, err)
		}
		logf("t=%.0fs %s: %d hosts affected, %d alive", now, ev.Type, len(affected), alive(v))
		entry := TimelineEntry{
			AtS:        now,
			Event:      string(ev.Type),
			Zone:       ev.Zone,
			Affected:   affected,
			Factor:     ev.Factor,
			AliveHosts: alive(v),
			LoadFactor: round4(loadFactor),
		}
		if err := step(entry, func(i int, d *controlplane.Deployment) (controlplane.Decision, error) {
			return pol.Heal(ctx, d, v, eff[i], observe(k+1, i), now, searchOpts(k+1, i))
		}); err != nil {
			return nil, err
		}
	}

	// Closing observation: one settle pass with recovery disabled, so the
	// end-state assertions see the final placements' q-errors.
	if err := step(TimelineEntry{AtS: now, Event: "end", AliveHosts: alive(v), LoadFactor: round4(loadFactor)},
		func(i int, d *controlplane.Deployment) (controlplane.Decision, error) {
			switch {
			case !d.Deployed:
				return controlplane.Decision{Violation: controlplane.ViolationUndeployed}, nil
			case len(fl.deadHosts(d.Placement)) > 0:
				return controlplane.Decision{Violation: controlplane.ViolationDeadHost}, nil
			}
			dec, _, err := controlplane.Observe(d, v.Cluster, eff[i], observe(len(events)+1, i))
			return dec, err
		}); err != nil {
		return nil, err
	}

	// Totals count the event steps' rows; the end-state q-error is the
	// worst of the closing rows.
	for _, e := range rep.Timeline[1 : len(rep.Timeline)-1] {
		rep.Totals.add(e.Queries)
	}
	maxQ := 0.0
	for _, st := range rep.Timeline[len(rep.Timeline)-1].Queries {
		maxQ = math.Max(maxQ, math.Max(st.QErrThroughput, st.QErrProcLatency))
	}

	rep.Assertions = evaluateAssertions(sc.Assertions, rep, deps, deadAfterRecovery, maxQ)
	rep.Pass = true
	for _, a := range rep.Assertions {
		if !a.Pass {
			rep.Pass = false
		}
	}
	logf("done: %d events, %d violations, %d migrations, %d replacements, %d suppressed, pass=%v",
		rep.Totals.Events, rep.Totals.Violations, rep.Totals.Migrations, rep.Totals.Replacements, rep.Totals.Suppressed, rep.Pass)
	return rep, nil
}

// evaluateAssertions grades the end state; no-dead-placements defaults
// to on.
func evaluateAssertions(a Assertions, rep *Report, deps []controlplane.Deployment, deadAfterRecovery []string, maxQ float64) []AssertionResult {
	var out []AssertionResult
	add := func(name string, pass bool, detail string) {
		out = append(out, AssertionResult{Name: name, Pass: pass, Detail: detail})
	}
	if a.NoDeadPlacements == nil || *a.NoDeadPlacements {
		if len(deadAfterRecovery) == 0 {
			add("no-dead-placements", true, "no placement referenced a dead host after any recovery pass")
		} else {
			add("no-dead-placements", false, fmt.Sprintf("placements referenced dead hosts after recovery: %v", deadAfterRecovery))
		}
	}
	moves := rep.Totals.Migrations + rep.Totals.Replacements
	if a.MaxMigrations != nil {
		add("max-migrations", moves <= *a.MaxMigrations,
			fmt.Sprintf("%d placement changes (migrations %d + replacements %d), limit %d",
				moves, rep.Totals.Migrations, rep.Totals.Replacements, *a.MaxMigrations))
	}
	if a.MinMigrations != nil {
		add("min-migrations", moves >= *a.MinMigrations,
			fmt.Sprintf("%d placement changes, minimum %d", moves, *a.MinMigrations))
	}
	if a.MaxQError > 0 {
		add("max-qerror", maxQ <= a.MaxQError,
			fmt.Sprintf("worst end-state q-error %.4f, limit %v", maxQ, a.MaxQError))
	}
	if a.RequireAllDeployed {
		undeployed := 0
		for _, d := range deps {
			if !d.Deployed {
				undeployed++
			}
		}
		add("require-all-deployed", undeployed == 0, fmt.Sprintf("%d of %d queries undeployed", undeployed, len(deps)))
	}
	return out
}

// mergeIDs appends the IDs of b not already in a, keeping order.
func mergeIDs(a, b []string) []string {
	for _, id := range b {
		if !slices.Contains(a, id) {
			a = append(a, id)
		}
	}
	return a
}
