package fleet

import (
	"encoding/json"
	"strings"
	"testing"
)

// validScenarioJSON is a small but fully-featured scenario document used
// by the parser tests and as the fuzz seed corpus.
const validScenarioJSON = `{
  "name": "parser-fixture",
  "seed": 7,
  "fleet": {
    "templates": [
      {"name": "edge", "weight": 2, "grid": "edge"},
      {"name": "custom", "cpu": [400, 800], "ram_mb": [8000], "bandwidth_mbps": [1600], "latency_ms": [1, 5]}
    ],
    "zones": [
      {"name": "west", "hosts": 4},
      {"name": "core", "hosts": 2, "templates": ["custom"]}
    ]
  },
  "workload": {"queries": 2, "recipe": "training"},
  "events": [
    {"at_s": 10, "type": "zone-outage", "zone": "west"},
    {"at_s": 20, "type": "load-spike", "factor": 1.5},
    {"at_s": 30, "type": "host-recover", "zone": "west", "count": 2},
    {"at_s": 40, "type": "link-degrade", "zone": "core", "factor": 4},
    {"at_s": 50, "type": "link-recover", "zone": "core"},
    {"at_s": 60, "type": "host-crash", "hosts": ["core/host-000"]}
  ],
  "recovery": {"qerror_threshold": 2, "min_improvement": 0.05, "cooldown_s": 5, "budget": 8, "strategy": "local-search"},
  "assertions": {"max_migrations": 10, "max_qerror": 50, "no_dead_placements": true}
}`

func TestParseValidScenario(t *testing.T) {
	sc, err := Parse([]byte(validScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "parser-fixture" || sc.Seed != 7 {
		t.Errorf("header mismatch: %+v", sc)
	}
	if len(sc.Events) != 6 || len(sc.Fleet.Templates) != 2 || len(sc.Fleet.Zones) != 2 {
		t.Errorf("structure mismatch: %+v", sc)
	}
	// Round trip: the parsed scenario re-marshals and re-parses.
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

// TestParseErrorsNameField drives the parser with malformed documents
// and requires every error to name the offending field.
func TestParseErrorsNameField(t *testing.T) {
	mut := func(f func(*Scenario)) []byte {
		sc, err := Parse([]byte(validScenarioJSON))
		if err != nil {
			t.Fatal(err)
		}
		f(sc)
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		doc  []byte
		want string // substring the error must contain
	}{
		{"not json", []byte("{"), "parsing scenario"},
		{"wrong type", []byte(`{"seed": "seven"}`), "seed"},
		{"unknown field", []byte(`{"seed": 1, "fleeet": {}}`), "fleeet"},
		{"trailing garbage", append([]byte(validScenarioJSON), []byte("{}")...), "trailing data"},
		{"no templates", mut(func(s *Scenario) { s.Fleet.Templates = nil }), "fleet.templates"},
		{"unnamed template", mut(func(s *Scenario) { s.Fleet.Templates[0].Name = "" }), "fleet.templates[0].name"},
		{"duplicate template", mut(func(s *Scenario) { s.Fleet.Templates[1].Name = "edge" }), "fleet.templates[1].name"},
		{"negative weight", mut(func(s *Scenario) { s.Fleet.Templates[0].Weight = -1 }), "fleet.templates[0].weight"},
		{"unknown grid", mut(func(s *Scenario) { s.Fleet.Templates[0].Grid = "quantum" }), "fleet.templates[0]"},
		{"grid plus lists", mut(func(s *Scenario) { s.Fleet.Templates[0].CPU = []float64{100} }), "fleet.templates[0].grid"},
		{"empty grid dimension", mut(func(s *Scenario) { s.Fleet.Templates[1].CPU = nil }), "cpu"},
		{"bad grid value", mut(func(s *Scenario) { s.Fleet.Templates[1].RAMMB = []float64{-4} }), "ram_mb"},
		{"no zones", mut(func(s *Scenario) { s.Fleet.Zones = nil }), "fleet.zones"},
		{"zero hosts", mut(func(s *Scenario) { s.Fleet.Zones[0].Hosts = 0 }), "fleet.zones[0].hosts"},
		{"duplicate zone", mut(func(s *Scenario) { s.Fleet.Zones[1].Name = "west" }), "fleet.zones[1].name"},
		{"unknown zone template", mut(func(s *Scenario) { s.Fleet.Zones[1].Templates = []string{"nope"} }), "fleet.zones[1].templates[0]"},
		{"zero queries", mut(func(s *Scenario) { s.Workload.Queries = 0 }), "workload.queries"},
		{"unknown recipe", mut(func(s *Scenario) { s.Workload.Recipe = "nope" }), "workload.recipe"},
		{"negative event time", mut(func(s *Scenario) { s.Events[0].AtS = -1 }), "events[0].at_s"},
		{"unknown event type", mut(func(s *Scenario) { s.Events[0].Type = "meteor" }), "events[0].type"},
		{"unknown event zone", mut(func(s *Scenario) { s.Events[0].Zone = "east" }), "events[0].zone"},
		{"crash without targets", mut(func(s *Scenario) { s.Events[5].Hosts = nil }), "events[5].count"},
		{"duplicate event host", mut(func(s *Scenario) { s.Events[5].Hosts = []string{"core/host-001", "core/host-001"} }), "events[5].hosts[1]"},
		{"unknown event host", mut(func(s *Scenario) { s.Events[5].Hosts = []string{"core/host-000", "core/host-002"} }), "events[5].hosts[1]"},
		{"event host in unknown zone", mut(func(s *Scenario) { s.Events[5].Hosts = []string{"east/host-000"} }), "events[5].hosts[0]"},
		{"event host not zero-padded", mut(func(s *Scenario) { s.Events[5].Hosts = []string{"core/host-0"} }), "events[5].hosts[0]"},
		{"degrade factor", mut(func(s *Scenario) { s.Events[3].Factor = 0.5 }), "events[3].factor"},
		{"spike factor", mut(func(s *Scenario) { s.Events[1].Factor = 0 }), "events[1].factor"},
		{"threshold below one", mut(func(s *Scenario) { s.Recovery.QErrorThreshold = 0.5 }), "recovery.qerror_threshold"},
		{"negative cooldown", mut(func(s *Scenario) { s.Recovery.CooldownS = -1 }), "recovery.cooldown_s"},
		{"unknown strategy", mut(func(s *Scenario) { s.Recovery.Strategy = "warp" }), "recovery.strategy"},
		{"unknown objective", mut(func(s *Scenario) { s.Recovery.Objective = "vibes" }), "recovery.objective"},
		{"qerror assertion below one", mut(func(s *Scenario) { s.Assertions.MaxQError = 0.5 }), "assertions.max_qerror"},
		{"max below min", mut(func(s *Scenario) { n := 1; s.Assertions.MinMigrations = &n; m := 0; s.Assertions.MaxMigrations = &m }), "assertions.max_migrations"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.doc)
		if err == nil {
			t.Errorf("%s: parse succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestEventsSortedStably: the runner walks events by at_s with ties in
// file order.
func TestEventsSortedStably(t *testing.T) {
	sc := &Scenario{Events: []Event{
		{AtS: 20, Type: EventLoadSpike, Factor: 2},
		{AtS: 10, Type: EventLinkRecover},
		{AtS: 10, Type: EventLinkDegrade, Factor: 3},
	}}
	evs := sc.sortedEvents()
	if evs[0].Type != EventLinkRecover || evs[1].Type != EventLinkDegrade || evs[2].Type != EventLoadSpike {
		t.Errorf("unexpected order: %+v", evs)
	}
}

func TestBuildFleetDeterministic(t *testing.T) {
	sc, err := Parse([]byte(validScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Fleet {
		f, err := buildFleet(sc.Fleet, newTestRng(sc.Seed))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := build(), build()
	if a.NumHosts() != 6 || b.NumHosts() != 6 {
		t.Fatalf("host count: %d / %d, want 6", a.NumHosts(), b.NumHosts())
	}
	for i := range a.hosts {
		if a.hosts[i].host != b.hosts[i].host {
			t.Errorf("host %d differs across identically-seeded builds", i)
		}
	}
	if a.hostID(0) != "west/host-000" || a.hostID(4) != "core/host-000" {
		t.Errorf("unexpected host IDs: %s, %s", a.hostID(0), a.hostID(4))
	}
	// The core zone only draws the custom template: CPU 400 or 800.
	for i := 4; i < 6; i++ {
		if cpu := a.hosts[i].host.CPU; cpu != 400 && cpu != 800 {
			t.Errorf("core host %d drew CPU %v outside its template", i, cpu)
		}
	}
}
