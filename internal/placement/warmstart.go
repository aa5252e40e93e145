package placement

import (
	"fmt"
	"math"

	"costream/internal/sim"
)

// WarmStart wraps any strategy with an incumbent placement: the incumbent
// is scored first (so it is the baseline every challenger must beat and
// its key is in the dedup cache), then the inner strategy runs with the
// remaining budget. When the inner strategy is a LocalSearch without an
// explicit Start, the incumbent becomes the first climb's start, scored
// first in one round with its own neighborhood, so the search explores
// the incumbent's neighborhood before restarting from scratch — the
// re-optimization entry point of the self-healing fleet loop. Any other
// inner strategy runs after a round that scores the incumbent alone. An
// invalid or empty incumbent (e.g. it references a host that no longer
// exists) degrades to the plain inner strategy. A nil Inner selects
// LocalSearch.
type WarmStart struct {
	Incumbent sim.Placement
	Inner     Strategy
}

// Name implements Strategy.
func (w WarmStart) Name() string {
	inner := w.Inner
	if inner == nil {
		inner = LocalSearch{}
	}
	return "warm-start+" + inner.Name()
}

// Run implements Strategy.
func (w WarmStart) Run(co *Core) error {
	inner := w.Inner
	if inner == nil {
		inner = LocalSearch{}
	}
	if len(w.Incumbent) > 0 && co.ValidPlacement(w.Incumbent) {
		if ls, ok := inner.(LocalSearch); ok && len(ls.Start) == 0 {
			// The climb scores its start first, in the round of the
			// start's neighborhood.
			ls.Start = w.Incumbent
			inner = ls
		} else if !co.Exhausted() {
			co.ScoreRound([]sim.Placement{append(sim.Placement(nil), w.Incumbent...)})
		}
	}
	return inner.Run(co)
}

// Hysteresis gates migrations of a live placement so the recovery loop
// never thrashes: a challenger must beat the incumbent's score by a
// configurable relative margin, and accepted migrations are separated by
// a cooldown.
type Hysteresis struct {
	// MinImprovement is the relative score improvement a challenger must
	// deliver over the incumbent before a migration is worthwhile
	// (0.05 = 5%). Zero accepts any strict improvement.
	MinImprovement float64
	// CooldownS is the minimum simulated-clock gap in seconds between
	// accepted migrations of the same deployment. Zero disables the
	// cooldown.
	CooldownS float64
}

// ShouldMigrate decides whether a challenger scoring challenger (lower
// is better, per Objective.Score) justifies migrating away from an
// incumbent scoring incumbent at clock nowS, given the deployment's last
// accepted migration at lastS (pass a negative value when it never
// migrated). The returned reason explains a false verdict for reports.
func (h Hysteresis) ShouldMigrate(incumbent, challenger, nowS, lastS float64) (bool, string) {
	if math.IsNaN(incumbent) || math.IsNaN(challenger) {
		return false, "non-finite score"
	}
	if h.CooldownS > 0 && lastS >= 0 && nowS-lastS < h.CooldownS {
		return false, fmt.Sprintf("cooldown: %.1fs since last migration < %.1fs", nowS-lastS, h.CooldownS)
	}
	if challenger >= incumbent {
		return false, "challenger does not improve on incumbent"
	}
	impr := improvement(incumbent, challenger)
	if impr < h.MinImprovement {
		return false, fmt.Sprintf("improvement %.1f%% below threshold %.1f%%", impr*100, h.MinImprovement*100)
	}
	return true, ""
}

// improvement is the relative score gain of the challenger over the
// incumbent, normalized by the incumbent's magnitude so it works for
// negative scores (MaxThroughput) too.
func improvement(incumbent, challenger float64) float64 {
	den := math.Abs(incumbent)
	if den == 0 {
		den = 1
	}
	return (incumbent - challenger) / den
}
