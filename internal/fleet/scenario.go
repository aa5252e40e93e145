// Package fleet is the fault-injecting fleet simulator: a
// seeded-deterministic model of an edge-cloud host fleet under a timed
// failure-event script, with a self-healing placement loop on top. A
// scenario file declares the fleet (weighted host templates over
// internal/hardware grids, grouped into zones), the deployed query
// workload (a scenario-registry recipe name), the event script (host
// crashes and recoveries, zone outages, link degradation, load spikes)
// and end-state assertions. Run advances an event-driven clock through
// the script; after every event the recovery loop, which is
// internal/controlplane's Policy, compares observed costs (simulated via
// internal/sim) against the costs predicted when each placement was
// activated, and on violation re-optimizes with the placement search
// engine warm-started from the incumbent, gated by migration
// hysteresis. The policy runs over the whole fleet in fleet host order:
// a host that is down stays in the cluster, banned from placement
// (View.Banned) like a cordoned one and named down (View.Down), so an
// incumbent on it reads as a dead-host violation. Every stage of a run
// is one control-plane pass. Everything is deterministic for a fixed
// seed: the JSON report is byte-identical across runs.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/scenario"
)

// Scenario is one fleet-simulation scenario: fleet, workload, event
// script, recovery policy and end-state assertions.
type Scenario struct {
	// Name labels the run in reports.
	Name string `json:"name,omitempty"`
	// Seed drives every random draw (fleet sampling, workload, search,
	// event targeting, simulator noise). Fixed seed, identical report.
	Seed int64 `json:"seed"`
	// Fleet declares the host fleet.
	Fleet FleetSpec `json:"fleet"`
	// Workload declares the deployed queries.
	Workload WorkloadSpec `json:"workload"`
	// Events is the timed failure script, ordered by at_s.
	Events []Event `json:"events,omitempty"`
	// Recovery tunes the self-healing loop.
	Recovery RecoverySpec `json:"recovery,omitempty"`
	// Assertions are checked against the finished run.
	Assertions Assertions `json:"assertions,omitempty"`
}

// FleetSpec declares the simulated host fleet: weighted host templates
// and the zones instantiating them.
type FleetSpec struct {
	Templates []HostTemplate `json:"templates"`
	Zones     []ZoneSpec     `json:"zones"`
}

// HostTemplate is a weighted recipe for sampling hosts. Either Grid
// names a built-in hardware grid ("training", "interpolation",
// "extrapolation", "edge", "cloud") or the four feature-value lists
// spell out a custom grid.
type HostTemplate struct {
	Name string `json:"name"`
	// Weight is the template's relative draw weight within a zone
	// (default 1).
	Weight float64 `json:"weight,omitempty"`
	// Grid names a built-in hardware grid; empty means the explicit
	// lists below are used.
	Grid          string    `json:"grid,omitempty"`
	CPU           []float64 `json:"cpu,omitempty"`
	RAMMB         []float64 `json:"ram_mb,omitempty"`
	BandwidthMbps []float64 `json:"bandwidth_mbps,omitempty"`
	LatencyMS     []float64 `json:"latency_ms,omitempty"`
}

// grid resolves the template to a concrete hardware grid.
func (t *HostTemplate) grid() (hardware.Grid, error) {
	if t.Grid != "" {
		switch t.Grid {
		case "training":
			return hardware.TrainingGrid(), nil
		case "interpolation":
			return hardware.InterpolationGrid(), nil
		case "extrapolation":
			return scenario.ExtrapolationGrid(), nil
		case "edge":
			return scenario.EdgeGrid(), nil
		case "cloud":
			return scenario.CloudGrid(), nil
		default:
			return hardware.Grid{}, fmt.Errorf("grid: unknown built-in grid %q (want training, interpolation, extrapolation, edge or cloud)", t.Grid)
		}
	}
	g := hardware.Grid{CPU: t.CPU, RAMMB: t.RAMMB, Bandwidth: t.BandwidthMbps, LatencyMS: t.LatencyMS}
	if err := g.Validate(); err != nil {
		return hardware.Grid{}, err
	}
	return g, nil
}

// zoneHostID is the ID of host i of a zone: "<zone>/host-<i>", i
// zero-padded to three digits.
func zoneHostID(zone string, i int) string {
	return string(hardware.AppendHostID(nil, zone+"/host-", i, 3))
}

// zoneHostIDs returns zoneHostID(zone, i) for i in [0, n), cut from one
// string.
func zoneHostIDs(zone string, n int) []string { return hardware.HostIDs(zone+"/host-", n, 3) }

// ZoneSpec instantiates hosts in one failure domain. Host IDs are
// "<zone>/host-<i>" (zoneHostID).
type ZoneSpec struct {
	Name  string `json:"name"`
	Hosts int    `json:"hosts"`
	// Templates restricts the zone to a subset of template names; empty
	// draws from all templates.
	Templates []string `json:"templates,omitempty"`
}

// WorkloadSpec declares the deployed queries: Queries independent query
// plans drawn from the named scenario-registry recipe.
type WorkloadSpec struct {
	Queries int `json:"queries"`
	// Recipe is a scenario-registry name (costream-datagen -list);
	// default "training".
	Recipe string `json:"recipe,omitempty"`
	// Seed overrides the query-workload seed; 0 derives it from the
	// scenario seed.
	Seed int64 `json:"seed,omitempty"`
}

// EventType enumerates the failure-script event kinds.
type EventType string

// Event kinds.
const (
	EventHostCrash   EventType = "host-crash"
	EventHostRecover EventType = "host-recover"
	EventZoneOutage  EventType = "zone-outage"
	EventZoneRecover EventType = "zone-recover"
	EventLinkDegrade EventType = "link-degrade"
	EventLinkRecover EventType = "link-recover"
	EventLoadSpike   EventType = "load-spike"
)

// Event is one entry of the timed failure script.
type Event struct {
	// AtS is the event's simulated-clock time in seconds.
	AtS  float64   `json:"at_s"`
	Type EventType `json:"type"`
	// Zone scopes the event to one zone (required for zone-outage and
	// zone-recover; optional scoping for the host and link events).
	Zone string `json:"zone,omitempty"`
	// Hosts names explicit target hosts for host-crash/host-recover:
	// distinct IDs of hosts the fleet declares, "<zone>/host-<i>".
	Hosts []string `json:"hosts,omitempty"`
	// Count picks that many random eligible hosts when Hosts is empty
	// (host-crash/host-recover).
	Count int `json:"count,omitempty"`
	// Factor is the link degradation multiplier (latency x factor,
	// bandwidth / factor; must be >= 1) or the load-spike rate
	// multiplier (> 0).
	Factor float64 `json:"factor,omitempty"`
}

// RecoverySpec tunes the self-healing loop. Zero values select the
// documented defaults.
type RecoverySpec struct {
	// QErrorThreshold is the observed-vs-predicted q-error above which a
	// placement counts as violated (default 2: off by more than 2x).
	QErrorThreshold float64 `json:"qerror_threshold,omitempty"`
	// MinImprovement is the relative cost improvement a challenger must
	// deliver before a migration is accepted (default 0.05).
	MinImprovement float64 `json:"min_improvement,omitempty"`
	// CooldownS is the minimum clock gap between accepted migrations of
	// one query (default 0: disabled).
	CooldownS float64 `json:"cooldown_s,omitempty"`
	// Budget is the per-search candidate budget (default 32).
	Budget int `json:"budget,omitempty"`
	// Strategy is the placement search strategy re-optimization runs,
	// warm-started from the incumbent (default "local-search").
	Strategy string `json:"strategy,omitempty"`
	// Objective is the placement objective (default
	// "min-processing-latency").
	Objective string `json:"objective,omitempty"`
}

const defaultMinImprovement = 0.05

// Assertions are end-state checks evaluated against the finished run;
// any failure makes the report fail (costream-sim exits non-zero).
type Assertions struct {
	// MaxMigrations bounds the total number of placement changes
	// (hysteresis-approved migrations plus forced replacements).
	MaxMigrations *int `json:"max_migrations,omitempty"`
	// MinMigrations requires at least this many placement changes.
	MinMigrations *int `json:"min_migrations,omitempty"`
	// MaxQError bounds the end-state observed-vs-predicted q-error of
	// every deployed query on both tracked metrics (e.g. 2 = "latency
	// and throughput within 2x predicted"). 0 disables the check.
	MaxQError float64 `json:"max_qerror,omitempty"`
	// NoDeadPlacements asserts no placement references a dead host after
	// any recovery pass. Defaults to true.
	NoDeadPlacements *bool `json:"no_dead_placements,omitempty"`
	// RequireAllDeployed asserts every query still holds a placement at
	// the end of the run.
	RequireAllDeployed bool `json:"require_all_deployed,omitempty"`
}

// Parse decodes and validates a scenario document. Unknown fields,
// trailing garbage and semantically invalid values are errors naming the
// offending field.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("fleet: parsing scenario: %w", describeJSONError(err))
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("fleet: parsing scenario: trailing data after the scenario document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// describeJSONError rewrites a json decode error so it names the
// offending field where the encoding/json error carries one.
func describeJSONError(err error) error {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) && typeErr.Field != "" {
		return fmt.Errorf("field %q: cannot decode %s into %s", typeErr.Field, typeErr.Value, typeErr.Type)
	}
	return err
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Validate checks the scenario's semantic invariants; errors name the
// offending field in JSON-path notation.
func (sc *Scenario) Validate() error {
	if len(sc.Fleet.Templates) == 0 {
		return fmt.Errorf("fleet: field fleet.templates: at least one host template is required")
	}
	templates := map[string]bool{}
	for i := range sc.Fleet.Templates {
		t := &sc.Fleet.Templates[i]
		if t.Name == "" {
			return fmt.Errorf("fleet: field fleet.templates[%d].name: must be non-empty", i)
		}
		if templates[t.Name] {
			return fmt.Errorf("fleet: field fleet.templates[%d].name: duplicate template %q", i, t.Name)
		}
		templates[t.Name] = true
		if t.Weight < 0 {
			return fmt.Errorf("fleet: field fleet.templates[%d].weight: must be non-negative, got %v", i, t.Weight)
		}
		if t.Grid != "" && (len(t.CPU) > 0 || len(t.RAMMB) > 0 || len(t.BandwidthMbps) > 0 || len(t.LatencyMS) > 0) {
			return fmt.Errorf("fleet: field fleet.templates[%d].grid: a built-in grid excludes explicit cpu/ram_mb/bandwidth_mbps/latency_ms lists", i)
		}
		if _, err := t.grid(); err != nil {
			return fmt.Errorf("fleet: field fleet.templates[%d]: %w", i, err)
		}
	}
	if len(sc.Fleet.Zones) == 0 {
		return fmt.Errorf("fleet: field fleet.zones: at least one zone is required")
	}
	zones := map[string]int{} // zone name -> host count
	for i := range sc.Fleet.Zones {
		z := &sc.Fleet.Zones[i]
		if z.Name == "" {
			return fmt.Errorf("fleet: field fleet.zones[%d].name: must be non-empty", i)
		}
		if _, dup := zones[z.Name]; dup {
			return fmt.Errorf("fleet: field fleet.zones[%d].name: duplicate zone %q", i, z.Name)
		}
		zones[z.Name] = z.Hosts
		if z.Hosts <= 0 {
			return fmt.Errorf("fleet: field fleet.zones[%d].hosts: must be positive, got %d", i, z.Hosts)
		}
		weight := 0.0
		for j, name := range z.Templates {
			if !templates[name] {
				return fmt.Errorf("fleet: field fleet.zones[%d].templates[%d]: unknown template %q", i, j, name)
			}
		}
		for ti := range sc.Fleet.Templates {
			t := &sc.Fleet.Templates[ti]
			if len(z.Templates) == 0 || slices.Contains(z.Templates, t.Name) {
				w := t.Weight
				if w == 0 {
					w = 1
				}
				weight += w
			}
		}
		if weight <= 0 {
			return fmt.Errorf("fleet: field fleet.zones[%d].templates: total template weight is zero", i)
		}
	}
	if sc.Workload.Queries <= 0 {
		return fmt.Errorf("fleet: field workload.queries: must be positive, got %d", sc.Workload.Queries)
	}
	recipe := sc.Workload.Recipe
	if recipe == "" {
		recipe = "training"
	}
	if _, err := scenario.Get(recipe); err != nil {
		return fmt.Errorf("fleet: field workload.recipe: %w", err)
	}
	for i := range sc.Events {
		if err := sc.Events[i].validate(zones); err != nil {
			return fmt.Errorf("fleet: field events[%d]%s", i, err)
		}
	}
	r := sc.Recovery
	if r.QErrorThreshold < 0 {
		return fmt.Errorf("fleet: field recovery.qerror_threshold: must be non-negative, got %v", r.QErrorThreshold)
	}
	if r.QErrorThreshold > 0 && r.QErrorThreshold < 1 {
		return fmt.Errorf("fleet: field recovery.qerror_threshold: q-errors are >= 1, a threshold of %v would always fire", r.QErrorThreshold)
	}
	if r.MinImprovement < 0 {
		return fmt.Errorf("fleet: field recovery.min_improvement: must be non-negative, got %v", r.MinImprovement)
	}
	if r.CooldownS < 0 {
		return fmt.Errorf("fleet: field recovery.cooldown_s: must be non-negative, got %v", r.CooldownS)
	}
	if r.Budget < 0 {
		return fmt.Errorf("fleet: field recovery.budget: must be non-negative, got %d", r.Budget)
	}
	if r.Strategy != "" {
		if _, err := placement.ParseStrategy(r.Strategy); err != nil {
			return fmt.Errorf("fleet: field recovery.strategy: %w", err)
		}
	}
	if _, err := placement.ParseObjective(r.Objective); err != nil {
		return fmt.Errorf("fleet: field recovery.objective: %w", err)
	}
	a := sc.Assertions
	if a.MaxMigrations != nil && *a.MaxMigrations < 0 {
		return fmt.Errorf("fleet: field assertions.max_migrations: must be non-negative, got %d", *a.MaxMigrations)
	}
	if a.MinMigrations != nil && *a.MinMigrations < 0 {
		return fmt.Errorf("fleet: field assertions.min_migrations: must be non-negative, got %d", *a.MinMigrations)
	}
	if a.MaxMigrations != nil && a.MinMigrations != nil && *a.MaxMigrations < *a.MinMigrations {
		return fmt.Errorf("fleet: field assertions.max_migrations: %d is below min_migrations %d", *a.MaxMigrations, *a.MinMigrations)
	}
	if a.MaxQError != 0 && a.MaxQError < 1 {
		return fmt.Errorf("fleet: field assertions.max_qerror: q-errors are >= 1, got %v", a.MaxQError)
	}
	return nil
}

func (e *Event) validate(zones map[string]int) error {
	if e.AtS < 0 {
		return fmt.Errorf(".at_s: must be non-negative, got %v", e.AtS)
	}
	if _, ok := zones[e.Zone]; e.Zone != "" && !ok {
		return fmt.Errorf(".zone: unknown zone %q", e.Zone)
	}
	switch e.Type {
	case EventHostCrash, EventHostRecover:
		if len(e.Hosts) == 0 && e.Count <= 0 {
			return fmt.Errorf(".count: %s needs explicit hosts or a positive count", e.Type)
		}
		if len(e.Hosts) > 0 && e.Count > 0 {
			return fmt.Errorf(".count: explicit hosts and a count are mutually exclusive")
		}
		for j, id := range e.Hosts {
			if !knownHost(zones, id) {
				return fmt.Errorf(".hosts[%d]: unknown host %q", j, id)
			}
			if slices.Contains(e.Hosts[:j], id) {
				return fmt.Errorf(".hosts[%d]: duplicate host %q", j, id)
			}
		}
	case EventZoneOutage, EventZoneRecover:
		if e.Zone == "" {
			return fmt.Errorf(".zone: %s needs a zone", e.Type)
		}
	case EventLinkDegrade:
		if e.Factor < 1 {
			return fmt.Errorf(".factor: link-degrade needs a factor >= 1, got %v", e.Factor)
		}
	case EventLinkRecover:
		// No parameters beyond the optional zone scope.
	case EventLoadSpike:
		if e.Factor <= 0 {
			return fmt.Errorf(".factor: load-spike needs a positive rate factor, got %v", e.Factor)
		}
	case "":
		return fmt.Errorf(".type: must be set")
	default:
		return fmt.Errorf(".type: unknown event type %q", e.Type)
	}
	return nil
}

// knownHost reports whether id is the ID of a host the zones declare
// (zone name -> host count). The zone is what precedes the last
// "/host-": the index after it has no slash.
func knownHost(zones map[string]int, id string) bool {
	cut := strings.LastIndex(id, "/host-")
	if cut < 0 {
		return false
	}
	zone := id[:cut]
	n, ok := zones[zone]
	i, err := strconv.Atoi(id[cut+len("/host-"):])
	return ok && err == nil && i >= 0 && i < n && zoneHostID(zone, i) == id
}

// sortedEvents returns the event script stably ordered by at_s (stable:
// same-time events keep file order).
func (sc *Scenario) sortedEvents() []Event {
	evs := append([]Event(nil), sc.Events...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].AtS < evs[b].AtS })
	return evs
}
