package fleet

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"
)

// TestHostIDsMatchFormat: the fleet's host IDs, cut from one string per
// zone, and the validator's zoneHostID equal fmt's "%s/host-%03d" for zone
// names with slashes, dashes and multi-byte runes, and for indices past
// the three padded digits, up to an 11 000-host zone.
func TestHostIDsMatchFormat(t *testing.T) {
	const hosts = 11_000
	spec := FleetSpec{Templates: []HostTemplate{{Name: "t", Grid: "training"}}}
	for _, zone := range []string{"edge-a", "eu/west-1", "zürich-π/机房-2", "/", "-"} {
		spec.Zones = append(spec.Zones, ZoneSpec{Name: zone, Hosts: hosts})
	}
	f, err := buildFleet(spec, newTestRng(1))
	if err != nil {
		t.Fatal(err)
	}
	zones := map[string]int{}
	for _, z := range spec.Zones {
		zones[z.Name] = z.Hosts
	}
	for zi, z := range spec.Zones {
		for i := range hosts {
			fi := zi*hosts + i
			want := fmt.Sprintf("%s/host-%03d", z.Name, i)
			if got := f.hostID(fi); got != want {
				t.Fatalf("fleet host %d is %q, want %q", fi, got, want)
			}
			if got := zoneHostID(z.Name, i); got != want {
				t.Fatalf("zoneHostID(%q, %d) = %q, want %q", z.Name, i, got, want)
			}
			if f.byID[want] != fi {
				t.Fatalf("ID %q indexes fleet host %d, want %d", want, f.byID[want], fi)
			}
			if !knownHost(zones, want) {
				t.Fatalf("the validator does not know host %q", want)
			}
		}
	}
}

// TestRunAllocsIndependentOfHostCount: with every zone of the crash
// cascade ten times as large (2 200 hosts), a run allocates within 2 % as
// many objects as at 220 hosts. The fleet build, the cluster views and
// the searches each cost a fixed number of allocations whatever the host
// count. The collector is off while the runs are counted: a collection
// empties the sync.Pools, and a larger run, which collects more often,
// would refill them more often.
func TestRunAllocsIndependentOfHostCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(scale int) float64 {
		sc := cascadeScenario(42)
		for i := range sc.Fleet.Zones {
			sc.Fleet.Zones[i].Hosts *= scale
		}
		opts := RunOptions{SimConfig: fastSim()}
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(context.Background(), sc, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, ten := allocs(1), allocs(10)
	t.Logf("allocations per run: %.0f at 220 hosts, %.0f at 2 200", one, ten)
	if ten > 1.02*one {
		t.Errorf("a run allocates %.0f objects at 2 200 hosts, %.0f at 220: more than 2 %% apart", ten, one)
	}
}
