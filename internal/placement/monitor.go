package placement

import (
	"context"
	"sort"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// MonitorConfig parameterizes the online monitoring baseline (Exp 2b,
// following the adaptive Storm scheduler of Aniello et al. [1]).
type MonitorConfig struct {
	// IntervalS is the monitoring window before each rescheduling
	// decision: runtime statistics must stabilize first.
	IntervalS float64
	// MigrationCostS is the downtime cost of moving one operator and its
	// state between hosts.
	MigrationCostS float64
	// MaxSteps bounds the number of rescheduling rounds.
	MaxSteps int
	// SimCfg configures the underlying execution simulator.
	SimCfg sim.Config
}

// DefaultMonitorConfig mirrors the paper's observation that monitoring
// needs tens of seconds per adjustment: 15 s monitoring windows and 8 s
// migration pauses.
func DefaultMonitorConfig(simCfg sim.Config) MonitorConfig {
	return MonitorConfig{IntervalS: 15, MigrationCostS: 8, MaxSteps: 8, SimCfg: simCfg}
}

// MonitorStep is one state of the online monitoring trajectory.
type MonitorStep struct {
	Placement sim.Placement
	Metrics   *sim.Metrics
	// ElapsedS is the wall-clock time since query start at which this
	// placement became active (monitoring intervals plus migrations).
	ElapsedS float64
}

// OnlineMonitoring simulates the monitoring-and-rescheduling loop: start
// from an initial heuristic placement, observe runtime statistics, then
// greedily migrate the heaviest operator off the most loaded host onto the
// least loaded feasible host, paying monitoring and migration overhead per
// round. The trajectory of placements and metrics is returned, first entry
// being the initial placement at time 0.
//
// The monitor itself draws no randomness: given the simulator seed in
// cfg.SimCfg the trajectory is fully deterministic (the greedy move
// selection breaks ties by operator/host index). Cancelling ctx stops the
// loop at the next monitoring window and returns the partial trajectory
// without error, as Search returns its partial incumbent; only a monitor
// cancelled before its initial observation fails, returning ctx.Err().
func OnlineMonitoring(ctx context.Context, a *stream.Analysis, k hardware.Checked, initial sim.Placement, cfg MonitorConfig) ([]MonitorStep, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cur := append(sim.Placement(nil), initial...)
	m, err := sim.Run(a, k, cur, cfg.SimCfg)
	if err != nil {
		return nil, err
	}
	steps := []MonitorStep{{Placement: cur, Metrics: m, ElapsedS: 0}}
	elapsed := 0.0
	// Moves that were tried and reverted; the scheduler does not repeat
	// them (it keeps its migration history, as in [1]).
	banned := map[[2]int]bool{}
	for step := 0; step < cfg.MaxSteps; step++ {
		if ctx.Err() != nil {
			break
		}
		elapsed += cfg.IntervalS
		last := steps[len(steps)-1]
		next, move, moved := rebalanceOnce(a, k, last.Placement, last.Metrics, banned)
		if !moved {
			break
		}
		elapsed += cfg.MigrationCostS
		nm, err := sim.Run(a, k, next, cfg.SimCfg)
		if err != nil {
			return nil, err
		}
		// A move is kept only if the runtime statistics improved;
		// otherwise the scheduler reverts it (paying the migration) and
		// tries a different move in the next monitoring window.
		if !better(nm, last.Metrics) {
			banned[move] = true
			elapsed += cfg.MigrationCostS // migrating back
			steps = append(steps, MonitorStep{Placement: last.Placement, Metrics: last.Metrics, ElapsedS: elapsed})
			continue
		}
		steps = append(steps, MonitorStep{Placement: next, Metrics: nm, ElapsedS: elapsed})
	}
	return steps, nil
}

func better(a, b *sim.Metrics) bool {
	if a.Success != b.Success {
		return a.Success
	}
	if a.Backpressured != b.Backpressured {
		return !a.Backpressured
	}
	return a.ProcLatencyMS < b.ProcLatencyMS
}

// rebalanceOnce proposes one greedy move in the spirit of [1]: take the
// most CPU-hungry operators on the most loaded hosts and move one to the
// host with the lowest utilization where the resulting placement stays
// valid, skipping moves in banned (already tried and reverted). It returns
// the new placement, the (operator, target host) move, and whether a move
// was found.
func rebalanceOnce(a *stream.Analysis, k hardware.Checked, p sim.Placement, m *sim.Metrics, banned map[[2]int]bool) (sim.Placement, [2]int, bool) {
	nHosts := len(k.Cluster().Hosts)
	util := make([]float64, nHosts)
	for i, h := range p {
		util[h] += m.PerOp[i].CPUUtil
	}
	// Operators ordered by CPU consumption descending (hungriest first);
	// stable sort keeps ties in operator-index order, matching the
	// insertion sort this replaces.
	ops := make([]int, len(p))
	for i := range ops {
		ops[i] = i
	}
	sort.SliceStable(ops, func(a, b int) bool {
		return m.PerOp[ops[a]].CPUUtil > m.PerOp[ops[b]].CPUUtil
	})
	// Candidate targets ordered by utilization ascending, ties by host
	// index.
	order := make([]int, nHosts)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return util[order[a]] < util[order[b]]
	})
	for _, op := range ops {
		for _, target := range order {
			if target == p[op] || banned[[2]int{op, target}] {
				continue
			}
			next := append(sim.Placement(nil), p...)
			next[op] = target
			if Valid(a, k, next) {
				return next, [2]int{op, target}, true
			}
		}
	}
	return p, [2]int{}, false
}
