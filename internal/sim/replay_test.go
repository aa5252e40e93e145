package sim

import (
	"fmt"
	"strings"
	"testing"

	"costream/internal/hardware"
	"costream/internal/stream"
)

// fleetObsConfig is the fleet loop's observation config (fleet.Run).
var fleetObsConfig = Config{DurationS: 30, WarmupS: 5, StepS: 0.05, NoiseStd: 0.05}

// stepped is the oracle of run: it builds the engine and calls step for
// every step, replaying nothing. It also returns the first step that
// starts from the state of one of the two steps before it and that
// period, or -1 and 0 for a run that never repeats.
func stepped(t testing.TB, q *stream.Query, c *hardware.Cluster, p Placement, cfg Config) (e *engine, m *Metrics, at, period int) {
	t.Helper()
	rates, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	e, at = newEngine(q, c, p, &rates.Rates, cfg), -1
	if e.crashed {
		return e, e.crashMetrics(), at, 0
	}
	fSteps, fWarm := cfg.stepCounts()
	steps, warm := int(fSteps), int(fWarm)
	for s := 0; s < steps; s++ {
		if at < 0 {
			if period = e.period(s); period > 0 {
				at = s
			}
		}
		e.step(s, warm)
	}
	return e, e.finish(), at, period
}

// engineState renders, with hex floats, what a run leaves in the engine
// beyond its metrics: the final queues and backlogs and the backlogs
// measurement started from.
func engineState(e *engine) string {
	var b strings.Builder
	for i := range e.queue {
		fmt.Fprintf(&b, "op%d queue=%x backlog=%x start=%x\n", i, e.queue[i], e.backlog[i], e.backlogStart[i])
	}
	return b.String()
}

// replayed runs the engine as Run does and reports where it differs from
// the stepping oracle, bit for bit, or "".
func replayed(t testing.TB, q *stream.Query, c *hardware.Cluster, p Placement, cfg Config) (diff string, at, period int) {
	t.Helper()
	want, wantM, at, period := stepped(t, q, c, p, cfg)
	rates, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	got := newEngine(q, c, p, &rates.Rates, cfg)
	gotM := got.run()
	if g, w := hexMetrics(gotM), hexMetrics(wantM); g != w {
		return fmt.Sprintf("metrics differ\ngot:\n%swant:\n%s", g, w), at, period
	}
	if g, w := engineState(got), engineState(want); g != w {
		return fmt.Sprintf("engine state differs\ngot:\n%swant:\n%s", g, w), at, period
	}
	return "", at, period
}

// TestReplayMatchesStepping: a run that replays its repeating steps
// matches, bit for bit, the same run stepped to the end, in its metrics
// and in the state it leaves (final queues and backlogs, the backlogs
// measurement started from). Where the cycle is found does not depend on
// the warm-up, so each generated run is first stepped at its base config,
// then rerun with the warm-up ending before, at and after that step, each
// with one measured step and with an odd number of them. The test fails
// unless the runs include period-1 and period-2 cycles at each warm-up
// position and runs that never repeat.
func TestReplayMatchesStepping(t *testing.T) {
	seen := map[string]int{}
	for k, r := range generatedRuns(5, 12, 3, 6, 220) {
		for _, base := range []Config{DefaultConfig(), fleetObsConfig} {
			base.Seed = r.cfg.Seed
			e, _, at, _ := stepped(t, r.q, r.c, r.p, base)
			if e.crashed {
				seen["crashed"]++ // no step to replay, at any config
				continue
			}
			cfgs := []Config{base}
			for _, warm := range []int{0, at - 1, at, at + 1, at + 2} {
				if warm < 0 {
					continue
				}
				for _, measured := range []float64{1, 101} {
					cfg := base
					cfg.WarmupS, cfg.DurationS = float64(warm)*cfg.StepS, measured*cfg.StepS
					cfgs = append(cfgs, cfg)
				}
			}
			for _, cfg := range cfgs {
				diff, at, period := replayed(t, r.q, r.c, r.p, cfg)
				if diff != "" {
					t.Fatalf("run %d at %+v (cycle of period %d from step %d): %s", k, cfg, period, at, diff)
				}
				_, warm := cfg.stepCounts()
				switch w := int(warm); {
				case at < 0:
					seen["never repeats"]++
				case w < at:
					seen[fmt.Sprintf("period %d, warm-up ends before the cycle", period)]++
				case w == at:
					seen[fmt.Sprintf("period %d, warm-up ends at the cycle", period)]++
				default:
					seen[fmt.Sprintf("period %d, warm-up ends after the cycle", period)]++
				}
			}
		}
	}
	for _, p := range []int{1, 2} {
		for _, where := range []string{"before", "at", "after"} {
			if key := fmt.Sprintf("period %d, warm-up ends %s the cycle", p, where); seen[key] == 0 {
				t.Errorf("no run with %s: %v", key, seen)
			}
		}
	}
	if seen["never repeats"] == 0 {
		t.Errorf("no run that never repeats: %v", seen)
	}
	t.Logf("%v", seen)
}
