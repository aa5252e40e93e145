package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"costream/internal/sim"
)

func newTestRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// fastSim is the observation window used by tests: short enough to keep
// hundreds of simulator runs per test cheap, long enough to produce
// stable statistics.
func fastSim() *sim.Config {
	return &sim.Config{DurationS: 4, WarmupS: 1, StepS: 0.1, NoiseStd: 0.02}
}

// cascadeScenario is the acceptance scenario: a 220-host fleet across
// three zones and a cascading failure script — full core-zone outage,
// then a load spike, then partial recovery. Placements under
// min-processing-latency concentrate on the strong core zone, so the
// outage forces re-placements onto the surviving fog/edge hosts.
func cascadeScenario(seed int64) *Scenario {
	return &Scenario{
		Name: "crash-cascade",
		Seed: seed,
		Fleet: FleetSpec{
			Templates: []HostTemplate{
				{Name: "edge", Grid: "edge", Weight: 1},
				{Name: "fog", Grid: "training", Weight: 1},
				{Name: "cloud", Grid: "cloud", Weight: 1},
			},
			Zones: []ZoneSpec{
				{Name: "edge-a", Hosts: 120, Templates: []string{"edge"}},
				{Name: "fog-b", Hosts: 60, Templates: []string{"fog"}},
				{Name: "core", Hosts: 40, Templates: []string{"cloud"}},
			},
		},
		Workload: WorkloadSpec{Queries: 3, Recipe: "training"},
		Events: []Event{
			{AtS: 10, Type: EventZoneOutage, Zone: "core"},
			{AtS: 20, Type: EventLoadSpike, Factor: 1.5},
			{AtS: 30, Type: EventHostRecover, Zone: "core", Count: 10},
		},
		Recovery: RecoverySpec{QErrorThreshold: 2, MinImprovement: 0.02, Budget: 8},
		Assertions: Assertions{
			MinMigrations: intp(1),
			MaxQError:     1e6, // bounded but loose: the tiny test window is noisy
		},
	}
}

func intp(n int) *int { return &n }

// atGOMAXPROCS runs f at GOMAXPROCS n and then restores the previous
// setting. A test that calls it must not call t.Parallel.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func runScenario(t *testing.T, sc *Scenario) *Report {
	t.Helper()
	rep, err := Run(context.Background(), sc, RunOptions{SimConfig: fastSim()})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCascadeDeterministicReport is the acceptance check: a >= 200-host
// cascading-failure scenario completes, the recovery loop re-places the
// queries hit by the outage, no placement ever references a crashed
// host, and the marshaled report is byte-identical across runs and
// GOMAXPROCS values.
func TestCascadeDeterministicReport(t *testing.T) {
	sc := cascadeScenario(42)
	rep := runScenario(t, sc)
	if rep.Hosts < 200 {
		t.Fatalf("fleet has %d hosts, acceptance needs >= 200", rep.Hosts)
	}
	if !rep.Pass {
		t.Errorf("report failed assertions: %+v", rep.Assertions)
	}
	if rep.Totals.Replacements == 0 {
		t.Error("core outage forced no re-placements; the cascade did not bite")
	}
	if rep.Totals.Violations == 0 {
		t.Error("no violations recorded across a zone outage")
	}
	assertionPassed(t, rep, "no-dead-placements")

	base, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		var again []byte
		atGOMAXPROCS(procs, func() { again, err = json.MarshalIndent(runScenario(t, sc), "", "  ") })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, again) {
			t.Errorf("report not byte-identical at GOMAXPROCS=%d", procs)
		}
	}
}

// TestNoPlacementOnDeadHosts walks the report timeline, tracking host
// aliveness from the event stream, and asserts no post-recovery
// placement ever references a host that is down at that point.
func TestNoPlacementOnDeadHosts(t *testing.T) {
	rep := runScenario(t, cascadeScenario(42))
	dead := map[string]bool{}
	for _, entry := range rep.Timeline {
		switch entry.Event {
		case string(EventZoneOutage), string(EventHostCrash):
			for _, id := range entry.Affected {
				dead[id] = true
			}
		case string(EventZoneRecover), string(EventHostRecover):
			for _, id := range entry.Affected {
				delete(dead, id)
			}
		}
		for _, q := range entry.Queries {
			for _, id := range q.Hosts {
				if dead[id] {
					t.Errorf("t=%.0fs %s: query %s placed on dead host %s", entry.AtS, entry.Event, q.ID, id)
				}
			}
		}
	}
	if len(dead) == 0 {
		t.Error("timeline recorded no dead hosts; the scenario exercised nothing")
	}
}

// TestHysteresisSuppressesMigrations measures the hysteresis contract:
// load spikes make the drift detector fire, and the random recovery
// strategy keeps proposing challengers that beat the re-scored incumbent
// by real margins — yet with an unreachable improvement threshold every
// migration is suppressed (zero placement changes), while the permissive
// run of the identical scenario does migrate.
func TestHysteresisSuppressesMigrations(t *testing.T) {
	mk := func(minImprovement float64) *Scenario {
		return &Scenario{
			Name: "hysteresis",
			Seed: 9,
			Fleet: FleetSpec{
				Templates: []HostTemplate{{Name: "mix", Grid: "training"}},
				Zones: []ZoneSpec{
					{Name: "a", Hosts: 6},
					{Name: "b", Hosts: 6},
				},
			},
			Workload: WorkloadSpec{Queries: 4, Recipe: "training"},
			Events: []Event{
				{AtS: 10, Type: EventLoadSpike, Factor: 4},
				{AtS: 20, Type: EventLoadSpike, Factor: 4},
			},
			Recovery: RecoverySpec{QErrorThreshold: 1.5, MinImprovement: minImprovement, Budget: 32, Strategy: "random"},
		}
	}
	strict := runScenario(t, mk(1e9))
	if strict.Totals.Violations == 0 {
		t.Fatal("load spikes produced no drift violations; hysteresis untested")
	}
	if strict.Totals.Migrations != 0 || strict.Totals.Replacements != 0 {
		t.Errorf("unreachable improvement threshold still moved placements: %+v", strict.Totals)
	}
	if strict.Totals.Suppressed == 0 {
		t.Error("no suppressed migrations recorded")
	}
	// At least one suppression must be hysteresis proper (a better
	// challenger rejected for insufficient improvement), not just the
	// search re-finding the incumbent.
	belowThreshold := false
	for _, e := range strict.Timeline {
		for _, q := range e.Queries {
			if strings.Contains(q.Action, "below threshold") {
				belowThreshold = true
			}
		}
	}
	if !belowThreshold {
		t.Error("no suppression cited the improvement threshold; hysteresis never gated a real challenger")
	}
	loose := runScenario(t, mk(0.001))
	if loose.Totals.Migrations == 0 {
		t.Errorf("permissive threshold migrated nothing: %+v", loose.Totals)
	}
}

// TestCooldownBlocksBackToBackMigrations: with an effectively infinite
// cooldown, at most the first drift migration per query is accepted.
func TestCooldownBlocksBackToBackMigrations(t *testing.T) {
	sc := &Scenario{
		Name: "cooldown",
		Seed: 5,
		Fleet: FleetSpec{
			Templates: []HostTemplate{{Name: "mix", Grid: "training"}},
			Zones:     []ZoneSpec{{Name: "a", Hosts: 5}, {Name: "b", Hosts: 5}},
		},
		Workload: WorkloadSpec{Queries: 2, Recipe: "training"},
		Events: []Event{
			{AtS: 10, Type: EventLinkDegrade, Zone: "a", Factor: 8},
			{AtS: 20, Type: EventLinkDegrade, Zone: "b", Factor: 8},
			{AtS: 30, Type: EventLinkDegrade, Zone: "a", Factor: 8},
		},
		Recovery: RecoverySpec{QErrorThreshold: 1.2, MinImprovement: 0.001, CooldownS: 1e9, Budget: 16},
	}
	rep := runScenario(t, sc)
	if rep.Totals.Migrations > sc.Workload.Queries {
		t.Errorf("cooldown 1e9s allowed %d migrations for %d queries", rep.Totals.Migrations, sc.Workload.Queries)
	}
	cooldownSuppressed := false
	for _, entry := range rep.Timeline {
		for _, q := range entry.Queries {
			if strings.Contains(q.Action, "cooldown") {
				cooldownSuppressed = true
			}
		}
	}
	if rep.Totals.Migrations > 0 && !cooldownSuppressed && rep.Totals.Suppressed == 0 {
		t.Error("no suppression recorded despite repeated drift under an infinite cooldown")
	}
}

// TestAssertionFailureFailsReport: an impossible assertion flips
// Pass=false without erroring the run.
func TestAssertionFailureFailsReport(t *testing.T) {
	sc := cascadeScenario(42)
	sc.Assertions = Assertions{MaxMigrations: intp(0)}
	rep := runScenario(t, sc)
	if rep.Pass {
		t.Error("report passed despite max_migrations=0 and a forced cascade")
	}
	found := false
	for _, a := range rep.Assertions {
		if a.Name == "max-migrations" && !a.Pass && a.Detail != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing failing max-migrations assertion: %+v", rep.Assertions)
	}
}

// TestRunContextCancellation: a pre-cancelled context aborts the run.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, cascadeScenario(1), RunOptions{SimConfig: fastSim()})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
}

func assertionPassed(t *testing.T, rep *Report, name string) {
	t.Helper()
	for _, a := range rep.Assertions {
		if a.Name == name {
			if !a.Pass {
				t.Errorf("assertion %s failed: %s", name, a.Detail)
			}
			return
		}
	}
	t.Errorf("assertion %s not evaluated", name)
}

// TestInvalidFleetClusterRefused: a fleet's cluster is validated once per
// view, where it is built or changed, not by every simulator run (which
// checks only the hosts a placement uses). A custom template grid
// holding NaN is refused before any host is sampled; a link degradation
// that drives the edge zone's latency to +Inf and its bandwidth to zero
// is refused at the view it changes, although the workload may run
// nowhere near that zone; and a view with a duplicate host ID or a NaN
// feature is refused. A fleet holds its hosts by value, so it cannot
// hold a null one.
func TestInvalidFleetClusterRefused(t *testing.T) {
	sc := cascadeScenario(3)
	sc.Fleet.Templates = append(sc.Fleet.Templates, HostTemplate{Name: "nan",
		CPU: []float64{100}, RAMMB: []float64{math.NaN()}, BandwidthMbps: []float64{100}, LatencyMS: []float64{5}})
	if _, err := Run(context.Background(), sc, RunOptions{SimConfig: fastSim()}); err == nil || !strings.Contains(err.Error(), "ram_mb holds invalid value NaN") {
		t.Fatalf("NaN template grid: err = %v, want a refusal naming ram_mb", err)
	}

	sc = cascadeScenario(3)
	sc.Events = []Event{
		{AtS: 10, Type: EventLinkDegrade, Zone: "edge-a", Factor: 1e200},
		{AtS: 20, Type: EventLinkDegrade, Zone: "edge-a", Factor: 1e200},
	}
	if _, err := Run(context.Background(), sc, RunOptions{SimConfig: fastSim()}); err == nil ||
		!strings.Contains(err.Error(), "link-degrade at 20s: invalid cluster: host edge-a/host-000: latency must be finite") {
		t.Fatalf("link degradation to +Inf: err = %v, want the second event's view refused", err)
	}

	fl, err := buildFleet(cascadeScenario(3).Fleet, newTestRng(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.clusterView(); err != nil {
		t.Fatalf("valid fleet: %v", err)
	}
	last := &fl.hosts[len(fl.hosts)-1].host
	last.ID = fl.hostID(0)
	if _, err := fl.clusterView(); err == nil || !strings.Contains(err.Error(), "duplicate host id") {
		t.Fatalf("duplicate host id: err = %v", err)
	}
	last.ID, last.CPU = "nan", math.NaN()
	if _, err := fl.clusterView(); err == nil || !strings.Contains(err.Error(), "cpu must be finite") {
		t.Fatalf("NaN cpu: err = %v", err)
	}
}
