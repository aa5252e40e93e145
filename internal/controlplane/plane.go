package controlplane

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

const (
	// tickIntervalS is how far the control clock advances per tick. The
	// clock is logical: it feeds hysteresis cooldowns and history
	// timestamps, independent of how often the wall-clock loop fires.
	tickIntervalS = 15.0
	// historyLimit bounds each deployment's retained history entries.
	historyLimit = 32
)

// defaultObservation is the simulated metric-feed window used when
// Config.Feed is nil: short enough that a control tick over many
// deployments stays cheap, long enough past warm-up for stable
// statistics.
func defaultObservation() sim.Config {
	return sim.Config{DurationS: 5, WarmupS: 1, StepS: 0.1, NoiseStd: 0.05}
}

// Config configures a Plane.
type Config struct {
	// Policy is the decision kernel; Policy.Predictor is required.
	Policy Policy
	// Feed supplies observations. Nil selects SimFeed over a short
	// window with per-(tick, deployment) seeds derived from Seed, so
	// repeated ticks observe genuinely fresh (but reproducible) noise.
	Feed MetricFeed
	// Seed drives search and observation seed derivation.
	Seed int64
	// Logf receives control-loop progress lines; nil silences them. It is
	// called under the plane's lock and never from a decision: a tick or
	// a drain logs while it commits, in sorted-id order.
	Logf func(format string, args ...any)
}

// HistoryEntry is one control decision in a deployment's history.
type HistoryEntry struct {
	AtS             float64  `json:"at_s"`
	Tick            int      `json:"tick"`
	Violation       string   `json:"violation,omitempty"`
	Action          string   `json:"action,omitempty"`
	QErrThroughput  float64  `json:"qerr_throughput,omitempty"`
	QErrProcLatency float64  `json:"qerr_proc_latency,omitempty"`
	Hosts           []string `json:"hosts,omitempty"`
}

// Status is one deployment's externally visible state.
type Status struct {
	ID        string              `json:"id"`
	Deployed  bool                `json:"deployed"`
	Hosts     []string            `json:"hosts,omitempty"`
	Placement sim.Placement       `json:"placement,omitempty"`
	Predicted placement.PredCosts `json:"predicted"`
	LastMoveS float64             `json:"last_move_s"`
	History   []HistoryEntry      `json:"history,omitempty"`
}

// HostStatus is one host's control-plane state, aggregated across every
// deployment's cluster.
type HostStatus struct {
	ID          string `json:"id"`
	Cordoned    bool   `json:"cordoned"`
	Deployments int    `json:"deployments"`
}

// TickReport summarizes one control tick.
type TickReport struct {
	Tick       int     `json:"tick"`
	AtS        float64 `json:"at_s"`
	Healed     int     `json:"deployments"`
	Violations int     `json:"violations"`
	Migrations int     `json:"migrations"`
	Suppressed int     `json:"suppressed"`
}

// planeDep is one registered deployment plus its private cluster and
// bookkeeping.
type planeDep struct {
	d       Deployment
	cluster hardware.Checked
	seq     int
	history []HistoryEntry
}

// Plane is the placement control plane: a registry of deployed queries
// (query + cluster + incumbent placement + predicted costs), host
// cordon/drain state, and the periodic control tick that heals every
// registered deployment through the Policy kernel. All methods are safe
// for concurrent use; Tick and Drain serialize against CRUD so callers
// never observe torn registry state.
type Plane struct {
	cfg Config

	mu       sync.Mutex
	deps     map[string]*planeDep
	cordoned map[string]bool
	nowS     float64
	ticks    int
	seq      int
}

// New builds a Plane. Policy.Predictor is required.
func New(cfg Config) (*Plane, error) {
	if cfg.Policy.Predictor == nil {
		return nil, fmt.Errorf("controlplane: Config.Policy.Predictor is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Plane{
		cfg:      cfg,
		deps:     map[string]*planeDep{},
		cordoned: map[string]bool{},
	}, nil
}

// feed returns the metric feed for one (tick, deployment) heal.
func (pl *Plane) feed(stage, seq int) MetricFeed {
	if pl.cfg.Feed != nil {
		return pl.cfg.Feed
	}
	cfg := defaultObservation()
	cfg.Seed = ObservationSeed(pl.cfg.Seed, stage, seq)
	return SimFeed{Cfg: cfg}
}

func (pl *Plane) searchOpts(stage, seq int) placement.SearchOptions {
	return placement.SearchOptions{Seed: DeriveSeed(pl.cfg.Seed, stage, seq)}
}

// bannedIdx maps the cordon set onto one deployment's cluster.
func (pl *Plane) bannedIdx(k hardware.Checked) []int {
	if len(pl.cordoned) == 0 {
		return nil
	}
	var out []int
	for i, h := range k.Cluster().Hosts {
		if h.ID != "" && pl.cordoned[h.ID] {
			out = append(out, i)
		}
	}
	return out
}

// hostNames renders a placement, whose every entry is a host of k, as
// host IDs.
func hostNames(k hardware.Checked, p sim.Placement) []string {
	if len(p) == 0 {
		return nil
	}
	out := make([]string, len(p))
	for i, h := range p {
		out[i] = k.Cluster().Hosts[h].ID
	}
	return out
}

// Deploy registers the analysed query a on cluster k under id, placing it.
// A non-nil placement is adopted as-is (validated and priced, no search)
// — the serve API uses this to round-trip /v1/example bodies; nil runs a
// fresh placement search that respects the current cordon set.
func (pl *Plane) Deploy(ctx context.Context, id string, a *stream.Analysis, k hardware.Checked, p sim.Placement) (Status, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if id == "" {
		return Status{}, fmt.Errorf("controlplane: deployment id is required")
	}
	// Deployment ids travel in URL paths (unlike host IDs), so keep them
	// to a path-safe charset.
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return Status{}, fmt.Errorf("controlplane: invalid deployment id %q (allowed: letters, digits, '.', '_', '-')", id)
		}
	}
	if _, ok := pl.deps[id]; ok {
		return Status{}, &DuplicateError{ID: id}
	}
	pd := &planeDep{
		d:       Deployment{ID: id, Query: a},
		cluster: k,
		seq:     pl.seq,
	}
	v := View{Cluster: k, Banned: pl.bannedIdx(k)}
	if p != nil {
		if err := p.Validate(a.Query(), k.Cluster()); err != nil {
			return Status{}, fmt.Errorf("controlplane: adopting placement for %s: %w", id, err)
		}
		if touchesBanned(p, v.Banned) {
			return Status{}, fmt.Errorf("controlplane: adopting placement for %s: placement uses a cordoned host", id)
		}
		costs, err := placement.PredictOne(pl.cfg.Policy.Predictor, a, k, p)
		if err != nil {
			return Status{}, fmt.Errorf("controlplane: pricing placement for %s: %w", id, err)
		}
		pd.d.Placement = append(sim.Placement(nil), p...)
		pd.d.Predicted = costs
		pd.d.Deployed = true
	} else {
		if err := pl.cfg.Policy.Deploy(ctx, &pd.d, v, pl.searchOpts(0, pl.seq)); err != nil {
			return Status{}, fmt.Errorf("controlplane: deploying %s: %w", id, err)
		}
	}
	pl.seq++
	pl.deps[id] = pd
	pl.pushHistory(pd, HistoryEntry{
		AtS: pl.nowS, Tick: pl.ticks, Action: ActionDeployed,
		Hosts: hostNames(pd.cluster, pd.d.Placement),
	})
	met().deployments.Set(float64(len(pl.deps)))
	pl.cfg.Logf("controlplane: deployed %s on %v", id, hostNames(pd.cluster, pd.d.Placement))
	return pl.status(pd, true), nil
}

// DuplicateError reports a Deploy against an already registered id.
type DuplicateError struct{ ID string }

func (e *DuplicateError) Error() string {
	return fmt.Sprintf("controlplane: deployment %q already exists", e.ID)
}

// Evict removes a deployment; ok reports whether it existed.
func (pl *Plane) Evict(id string) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if _, ok := pl.deps[id]; !ok {
		return false
	}
	delete(pl.deps, id)
	met().deployments.Set(float64(len(pl.deps)))
	return true
}

// Get returns one deployment's status including its history.
func (pl *Plane) Get(id string) (Status, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pd, ok := pl.deps[id]
	if !ok {
		return Status{}, false
	}
	return pl.status(pd, true), true
}

// List returns every deployment's status (history elided), sorted by id.
func (pl *Plane) List() []Status {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]Status, 0, len(pl.deps))
	for _, id := range pl.sortedIDs() {
		out = append(out, pl.status(pl.deps[id], false))
	}
	return out
}

// Cordon marks a host (by ID) unschedulable: searches stop emitting
// candidates on it and the next tick force-replaces any deployment
// still touching it. Cordoning an unknown host is allowed (it guards
// future deployments); changed reports whether the set changed.
func (pl *Plane) Cordon(host string) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.cordoned[host] {
		return false
	}
	pl.cordoned[host] = true
	return true
}

// Uncordon reverses Cordon.
func (pl *Plane) Uncordon(host string) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.cordoned[host] {
		return false
	}
	delete(pl.cordoned, host)
	return true
}

// Drain cordons the host and immediately heals every deployment whose
// incumbent touches it, instead of waiting for the next tick. It
// returns the ids of the deployments it healed and, like Tick, the
// failures of the others joined in sorted-id order.
func (pl *Plane) Drain(ctx context.Context, host string) ([]string, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.cordoned[host] = true
	var ids []string
	for _, id := range pl.sortedIDs() {
		pd := pl.deps[id]
		if pd.d.Deployed && touchesBanned(pd.d.Placement, pl.bannedIdx(pd.cluster)) {
			ids = append(ids, id)
		}
	}
	var healed []string
	outs, err := pl.healLocked(ctx, ids)
	for _, o := range outs {
		if o.Err == nil {
			healed = append(healed, o.Deployment.ID)
		}
	}
	return healed, err
}

// Hosts aggregates host state across every deployment's cluster plus
// cordon entries for hosts not (or no longer) backing any deployment.
func (pl *Plane) Hosts() []HostStatus {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	placedOn := map[string]int{}
	known := map[string]bool{}
	for _, pd := range pl.deps {
		for _, h := range pd.cluster.Cluster().Hosts {
			if h.ID != "" {
				known[h.ID] = true
			}
		}
		if pd.d.Deployed {
			seen := map[string]bool{}
			for _, name := range hostNames(pd.cluster, pd.d.Placement) {
				if name != "" && !seen[name] {
					seen[name] = true
					placedOn[name]++
				}
			}
		}
	}
	for h := range pl.cordoned {
		known[h] = true
	}
	ids := make([]string, 0, len(known))
	for h := range known {
		ids = append(ids, h)
	}
	sort.Strings(ids)
	out := make([]HostStatus, len(ids))
	for i, h := range ids {
		out[i] = HostStatus{ID: h, Cordoned: pl.cordoned[h], Deployments: placedOn[h]}
	}
	return out
}

// Tick advances the control clock one interval and heals every
// registered deployment in one Pass, committing the decisions in sorted
// id order. A deployment whose heal fails keeps its state and does not
// stop the others: the report counts the committed decisions, and the
// failures come back joined in sorted-id order. A cancelled ctx fails
// every heal it reaches; a heal it interrupts is never left torn (see
// Policy.Heal).
func (pl *Plane) Tick(ctx context.Context) (TickReport, error) {
	start := time.Now()
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.ticks++
	pl.nowS += tickIntervalS
	rep := TickReport{Tick: pl.ticks, AtS: pl.nowS}
	outs, err := pl.healLocked(ctx, pl.sortedIDs())
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		rep.Healed++
		if o.Decision.Violation != "" {
			rep.Violations++
		}
		switch {
		case o.Decision.Moved():
			rep.Migrations++
		case o.Decision.Suppressed():
			rep.Suppressed++
		}
	}
	met().deployments.Set(float64(len(pl.deps)))
	met().tickSeconds.Record(time.Since(start).Nanoseconds())
	if rep.Violations > 0 {
		pl.cfg.Logf("controlplane: tick %d: %d violations, %d migrations, %d suppressed",
			rep.Tick, rep.Violations, rep.Migrations, rep.Suppressed)
	}
	return rep, err
}

// healLocked decides the deployments ids (sorted) in one Pass and
// commits the outcomes in that order: a decision that succeeded replaces
// its deployment's state and is recorded in its history and the log,
// one that failed leaves its deployment as it was. It returns the
// outcomes in the order of ids and the failures joined. Callers hold
// pl.mu.
func (pl *Plane) healLocked(ctx context.Context, ids []string) ([]Outcome, error) {
	pds := make([]*planeDep, len(ids))
	deps := make([]Deployment, len(ids))
	for i, id := range ids {
		pds[i] = pl.deps[id]
		deps[i] = pds[i].d
	}
	outs := Pass(deps, func(i int, d *Deployment) (Decision, error) {
		pd := pds[i]
		v := View{Cluster: pd.cluster, Banned: pl.bannedIdx(pd.cluster)}
		return pl.cfg.Policy.Heal(ctx, d, v, nil, pl.feed(pl.ticks, pd.seq), pl.nowS, pl.searchOpts(pl.ticks, pd.seq))
	})
	var errs []error
	for i, o := range outs {
		if o.Err != nil {
			errs = append(errs, o.Err)
			continue
		}
		pd, dec := pds[i], o.Decision
		pd.d = o.Deployment
		if dec.Violation != "" || dec.Action != "" {
			pl.pushHistory(pd, HistoryEntry{
				AtS: pl.nowS, Tick: pl.ticks,
				Violation:       dec.Violation,
				Action:          dec.Action,
				QErrThroughput:  dec.QErrThroughput,
				QErrProcLatency: dec.QErrProcLatency,
				Hosts:           hostNames(pd.cluster, pd.d.Placement),
			})
			pl.cfg.Logf("controlplane: %s: %s -> %s", pd.d.ID, dec.Violation, dec.Action)
		}
	}
	return outs, errors.Join(errs...)
}

func (pl *Plane) pushHistory(pd *planeDep, e HistoryEntry) {
	pd.history = append(pd.history, e)
	if n := len(pd.history) - historyLimit; n > 0 {
		pd.history = append(pd.history[:0], pd.history[n:]...)
	}
}

func (pl *Plane) sortedIDs() []string {
	ids := make([]string, 0, len(pl.deps))
	for id := range pl.deps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (pl *Plane) status(pd *planeDep, withHistory bool) Status {
	st := Status{
		ID:        pd.d.ID,
		Deployed:  pd.d.Deployed,
		Hosts:     hostNames(pd.cluster, pd.d.Placement),
		Placement: append(sim.Placement(nil), pd.d.Placement...),
		Predicted: pd.d.Predicted,
		LastMoveS: pd.d.LastMoveS,
	}
	if withHistory {
		st.History = append([]HistoryEntry(nil), pd.history...)
	}
	return st
}
