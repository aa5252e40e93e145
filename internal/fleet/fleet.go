package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"costream/internal/controlplane"
	"costream/internal/hardware"
	"costream/internal/sim"
)

// hostState is one fleet host plus its mutable failure state.
type hostState struct {
	host hardware.Host // pristine features, never mutated
	zone int           // index into Fleet.zones
	// alive is flipped by crash/outage/recovery events.
	alive bool
	// degrade >= 1 multiplies the host's outgoing latency and divides
	// its bandwidth (tc-netem style link degradation).
	degrade float64
}

// Fleet is the instantiated host fleet with per-host failure state.
// Placements, the placement engine and the simulator all index hosts in
// stable fleet order; a host that is down stays in the cluster, banned
// from placement and named by View.Down.
type Fleet struct {
	zones []string
	hosts []hostState
	byID  map[string]int
}

// buildFleet samples the declared fleet: zone by zone, each host drawn
// from a weighted template choice, with IDs "<zone>/host-<i>". All
// randomness comes from rng, so the fleet is a pure function of the
// scenario seed. The hosts, their IDs (one string per zone) and the ID
// index are each allocated once, so a fleet costs a fixed number of
// allocations per zone whatever its host count.
func buildFleet(spec FleetSpec, rng *rand.Rand) (*Fleet, error) {
	grids := make([]hardware.Grid, len(spec.Templates))
	weights := make([]float64, len(spec.Templates))
	for i := range spec.Templates {
		g, err := spec.Templates[i].grid()
		if err != nil {
			return nil, fmt.Errorf("fleet: template %q: %w", spec.Templates[i].Name, err)
		}
		grids[i] = g
		weights[i] = spec.Templates[i].Weight
		if weights[i] == 0 {
			weights[i] = 1
		}
	}
	total := 0
	for _, z := range spec.Zones {
		total += max(z.Hosts, 0)
	}
	f := &Fleet{
		zones: make([]string, 0, len(spec.Zones)),
		hosts: make([]hostState, 0, total),
		byID:  make(map[string]int, total),
	}
	pool := make([]int, 0, len(spec.Templates)) // template indices eligible in a zone
	for zi, z := range spec.Zones {
		f.zones = append(f.zones, z.Name)
		pool = pool[:0]
		weight := 0.0
		for ti := range spec.Templates {
			if len(z.Templates) == 0 || slices.Contains(z.Templates, spec.Templates[ti].Name) {
				pool = append(pool, ti)
				weight += weights[ti]
			}
		}
		ids := zoneHostIDs(z.Name, z.Hosts)
		for i := 0; i < z.Hosts; i++ {
			pick := pool[len(pool)-1]
			r := rng.Float64() * weight
			for _, ti := range pool {
				if r -= weights[ti]; r < 0 {
					pick = ti
					break
				}
			}
			f.byID[ids[i]] = len(f.hosts)
			f.hosts = append(f.hosts, hostState{host: grids[pick].Sample(rng, ids[i]), zone: zi, alive: true, degrade: 1})
		}
	}
	return f, nil
}

// NumHosts returns the fleet size (alive or not).
func (f *Fleet) NumHosts() int { return len(f.hosts) }

// hostID returns the ID of fleet host fi.
func (f *Fleet) hostID(fi int) string { return f.hosts[fi].host.ID }

// clusterView is the fleet as the control plane sees it: every host in
// fleet order with link degradation applied to its features, and the
// hosts that are down banned and named down (View.Down). A host without
// degradation is the fleet's own, shared by pointer; a degraded one is a
// copy. The view is where the fleet's cluster is built or changed, so it
// is checked here, once per view: a degradation that drives a feature
// out of range (an infinite latency, a zero bandwidth) is refused here.
func (f *Fleet) clusterView() (controlplane.View, error) {
	c := &hardware.Cluster{Hosts: make([]*hardware.Host, len(f.hosts))}
	var v controlplane.View
	if down := f.count(func(hs *hostState) bool { return !hs.alive }); down > 0 {
		v.Banned = make([]int, 0, down)
	}
	for i := range f.hosts {
		hs := &f.hosts[i]
		if !hs.alive {
			v.Banned = append(v.Banned, i)
		}
		h := &hs.host
		if hs.degrade > 1 {
			d := hs.host
			d.NetLatencyMS *= hs.degrade
			d.NetBandwidthMbps /= hs.degrade
			h = &d
		}
		c.Hosts[i] = h
	}
	k, err := c.Check()
	if err != nil {
		return controlplane.View{}, err
	}
	v.Cluster, v.Down = k, v.Banned
	return v, nil
}

// hostIDs renders a placement as host IDs.
func (f *Fleet) hostIDs(p sim.Placement) []string {
	out := make([]string, len(p))
	for i, fi := range p {
		out[i] = f.hostID(fi)
	}
	return out
}

// deadHosts returns the IDs of dead hosts referenced by a placement,
// deduplicated, in placement order.
func (f *Fleet) deadHosts(p sim.Placement) []string {
	var out []string
	seen := map[int]bool{}
	for _, fi := range p {
		if !f.hosts[fi].alive && !seen[fi] {
			seen[fi] = true
			out = append(out, f.hostID(fi))
		}
	}
	return out
}

// apply mutates the fleet per one event and returns the affected host
// IDs, sorted. Load spikes do not touch the fleet (the runner scales the
// query rates) and return nil.
func (f *Fleet) apply(ev Event, rng *rand.Rand) ([]string, error) {
	switch ev.Type {
	case EventHostCrash:
		return f.setAlive(ev, rng, false), nil
	case EventHostRecover:
		return f.setAlive(ev, rng, true), nil
	case EventZoneOutage:
		return f.zoneAlive(ev.Zone, false), nil
	case EventZoneRecover:
		return f.zoneAlive(ev.Zone, true), nil
	case EventLinkDegrade:
		return f.degradeLinks(ev.Zone, ev.Factor), nil
	case EventLinkRecover:
		return f.recoverLinks(ev.Zone), nil
	case EventLoadSpike:
		return nil, nil
	}
	return nil, fmt.Errorf("fleet: unhandled event type %q", ev.Type)
}

// setAlive flips the aliveness of the event's targets: explicit host IDs
// (Validate has checked they name distinct fleet hosts) or Count random
// eligible hosts (scoped to the event's zone when set). Random targets
// are drawn with rng, so they are seed-deterministic.
func (f *Fleet) setAlive(ev Event, rng *rand.Rand, alive bool) []string {
	var targets []int
	if len(ev.Hosts) > 0 {
		for _, id := range ev.Hosts {
			targets = append(targets, f.byID[id])
		}
	} else {
		flips := func(hs *hostState) bool {
			return hs.alive != alive && (ev.Zone == "" || f.zones[hs.zone] == ev.Zone)
		}
		eligible := make([]int, 0, f.count(flips))
		for i := range f.hosts {
			if flips(&f.hosts[i]) {
				eligible = append(eligible, i)
			}
		}
		count := ev.Count
		if count > len(eligible) {
			count = len(eligible)
		}
		targets = make([]int, 0, count)
		for _, k := range rng.Perm(len(eligible))[:count] {
			targets = append(targets, eligible[k])
		}
		sort.Ints(targets)
	}
	if len(targets) == 0 {
		return nil
	}
	ids := make([]string, 0, len(targets))
	for _, fi := range targets {
		f.hosts[fi].alive = alive
		ids = append(ids, f.hostID(fi))
	}
	sort.Strings(ids)
	return ids
}

// zoneAlive sets the aliveness of every host in the zone that is not
// already in the target state.
func (f *Fleet) zoneAlive(zone string, alive bool) []string {
	return f.update(func(hs *hostState) bool {
		return f.zones[hs.zone] == zone && hs.alive != alive
	}, func(hs *hostState) { hs.alive = alive })
}

// degradeLinks multiplies the degradation factor of every host in scope
// (one zone, or the whole fleet when zone is empty).
func (f *Fleet) degradeLinks(zone string, factor float64) []string {
	return f.update(func(hs *hostState) bool {
		return zone == "" || f.zones[hs.zone] == zone
	}, func(hs *hostState) { hs.degrade *= factor })
}

// recoverLinks resets the degradation factor of every host in scope.
func (f *Fleet) recoverLinks(zone string) []string {
	return f.update(func(hs *hostState) bool {
		return (zone == "" || f.zones[hs.zone] == zone) && hs.degrade != 1
	}, func(hs *hostState) { hs.degrade = 1 })
}

// update applies change to every host in scope, in fleet order, and
// returns their IDs (nil for none) in one allocation.
func (f *Fleet) update(inScope func(*hostState) bool, change func(*hostState)) []string {
	n := f.count(inScope)
	if n == 0 {
		return nil
	}
	ids := make([]string, 0, n)
	for i := range f.hosts {
		if hs := &f.hosts[i]; inScope(hs) {
			change(hs)
			ids = append(ids, hs.host.ID)
		}
	}
	return ids
}

// count returns the number of hosts for which pred holds.
func (f *Fleet) count(pred func(*hostState) bool) int {
	n := 0
	for i := range f.hosts {
		if pred(&f.hosts[i]) {
			n++
		}
	}
	return n
}
