package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"costream/internal/placement"
)

// generatedScenarios draws n small seeded scenarios (12–50 hosts in two
// or three zones) that between them cycle every search strategy — the
// empty name, which selects the policy default, included — every
// objective and every event kind: explicit-host and counted crashes and
// recoveries, zone outages and recoveries, link degradation and
// recovery, and load spikes. Explicit hosts are named by their
// "<zone>/host-<i>" IDs.
func generatedScenarios(seed int64, n int) []*Scenario {
	rng := rand.New(rand.NewSource(seed))
	strategies := append([]string{""}, placement.StrategyNames()...)
	objectives := []string{"min-processing-latency", "min-e2e-latency", "max-throughput"}
	const kinds = 9
	var out []*Scenario
	for k := range n {
		sc := &Scenario{
			Name: fmt.Sprintf("generated-%02d", k),
			Seed: rng.Int63n(1 << 30),
			Fleet: FleetSpec{Templates: []HostTemplate{
				{Name: "edge", Grid: "edge", Weight: 1 + float64(rng.Intn(3))},
				{Name: "fog", Grid: "training", Weight: 1},
				{Name: "cloud", Grid: "cloud", Weight: 1},
			}},
			Workload: WorkloadSpec{Queries: 2 + rng.Intn(2), Recipe: "training"},
			Recovery: RecoverySpec{
				QErrorThreshold: []float64{0, 1.2, 1.5, 2}[rng.Intn(4)],
				MinImprovement:  []float64{0, 0.001, 0.001, 0.02}[rng.Intn(4)],
				CooldownS:       []float64{0, 5, 25}[rng.Intn(3)],
				Budget:          []int{0, 8, 24}[rng.Intn(3)],
				Strategy:        strategies[k%len(strategies)],
				Objective:       objectives[k%len(objectives)],
			},
		}
		zones := []string{"edge-a", "fog-b", "core"}[:2+rng.Intn(2)]
		total := 12 + rng.Intn(39)
		for zi, name := range zones {
			hosts := total / len(zones)
			if zi == 0 {
				hosts += total % len(zones)
			}
			z := ZoneSpec{Name: name, Hosts: hosts}
			if rng.Intn(2) == 0 {
				z.Templates = []string{sc.Fleet.Templates[zi].Name}
			}
			sc.Fleet.Zones = append(sc.Fleet.Zones, z)
		}
		zone := func() ZoneSpec { return sc.Fleet.Zones[rng.Intn(len(sc.Fleet.Zones))] }
		scope := func() string {
			if rng.Intn(3) == 0 {
				return ""
			}
			return zone().Name
		}
		// A counted event names a few hosts, or once in four times the
		// whole fleet, which undeploys every query until hosts recover.
		count := func() int {
			if rng.Intn(4) == 0 {
				return total
			}
			return 1 + rng.Intn(8)
		}
		explicit := func() []string {
			z := zone()
			var ids []string
			for _, i := range rng.Perm(z.Hosts)[:1+rng.Intn(min(3, z.Hosts))] {
				ids = append(ids, fmt.Sprintf("%s/host-%03d", z.Name, i))
			}
			return ids
		}
		at := 0.0
		for j := range 5 + rng.Intn(3) {
			at += float64(5 + rng.Intn(10))
			ev := Event{AtS: at}
			switch (k*5 + j) % kinds {
			case 0:
				ev.Type, ev.Hosts = EventHostCrash, explicit()
			case 1:
				ev.Type, ev.Zone, ev.Count = EventHostCrash, scope(), count()
			case 2:
				ev.Type, ev.Hosts = EventHostRecover, explicit()
			case 3:
				ev.Type, ev.Zone, ev.Count = EventHostRecover, scope(), count()
			case 4:
				ev.Type, ev.Zone = EventZoneOutage, zone().Name
			case 5:
				ev.Type, ev.Zone = EventZoneRecover, zone().Name
			case 6:
				ev.Type, ev.Zone, ev.Factor = EventLinkDegrade, scope(), []float64{1, 2, 8}[rng.Intn(3)]
			case 7:
				ev.Type, ev.Zone = EventLinkRecover, scope()
			case 8:
				ev.Type, ev.Factor = EventLoadSpike, []float64{0.5, 1.5, 4, 8}[rng.Intn(4)]
			}
			sc.Events = append(sc.Events, ev)
		}
		out = append(out, sc)
	}
	return out
}

// TestRunGoldenGenerated pins a SHA-256 over the marshaled reports of 16
// generated small-fleet scenarios under the simulator oracle, recorded
// while the control plane still searched a copy of the alive hosts
// rather than the whole fleet with the down hosts banned. Every
// scenario's report must also be byte-identical at GOMAXPROCS 1, 2 and 3:
// at 2 a pass over three queries queues one decision behind the others. The
// digest may only move with a deliberate change of the recovery loop,
// the search or the simulator.
func TestRunGoldenGenerated(t *testing.T) {
	const want = "048e08efa90b27e8e5dafeeeba7bd5dcf92446d85d6126f95f1886ae0e5f4840"
	h := sha256.New()
	for k, sc := range generatedScenarios(13, 16) {
		var reps [][]byte
		for _, procs := range []int{1, 2, 3} {
			var rep *Report
			var err error
			atGOMAXPROCS(procs, func() { rep, err = Run(context.Background(), sc, RunOptions{SimConfig: fastSim()}) })
			if err != nil {
				t.Fatalf("scenario %d at GOMAXPROCS=%d: %v", k, procs, err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, b)
		}
		for i, procs := range []int{2, 3} {
			if !bytes.Equal(reps[0], reps[i+1]) {
				t.Errorf("scenario %d: report differs between GOMAXPROCS 1 and %d", k, procs)
			}
		}
		fmt.Fprintf(h, "scenario %d\n%s\n", k, reps[0])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest of the generated reports moved: got %s, want %s", got, want)
	}
}
