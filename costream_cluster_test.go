package costream

import (
	"context"
	"math"
	"strings"
	"testing"

	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// invalidClusters are the three ways a cluster fails Cluster.Validate on
// a host nothing is placed on: each appends one host to c, after the
// hosts a placement uses, and names what the refusal must mention.
var invalidClusters = []struct {
	name string
	want string
	add  func(c *Cluster) *Host
}{
	{"duplicate id", "duplicate host id", func(c *Cluster) *Host { h := *c.Hosts[0]; return &h }},
	{"null host", "is null", func(*Cluster) *Host { return nil }},
	{"NaN field", "cpu must be finite", func(c *Cluster) *Host { h := *c.Hosts[0]; h.ID, h.CPU = "nan", math.NaN(); return &h }},
}

// withInvalidHost returns a copy of c with case k's host appended.
func withInvalidHost(c *Cluster, k int) *Cluster {
	c = c.Clone()
	c.Hosts = append(c.Hosts, invalidClusters[k].add(c))
	return c
}

// fixedCosts predicts the same costs for every placement and never looks
// at the cluster, so a refusal it sees comes from the entry point.
var fixedCosts = placement.PredictorFunc(func(*stream.Query, *hardware.Cluster, sim.Placement) (placement.PredCosts, error) {
	return placement.PredCosts{ThroughputTPS: 1, ProcLatencyMS: 1, E2ELatencyMS: 1, Success: true}, nil
})

// TestInvalidClusterRefusedAtEveryEntryPoint: sim.Run checks only the
// hosts a placement uses, so every place a cluster enters refuses an
// invalid one itself — a duplicate host ID, a null host or a NaN feature
// on a host the placement does not use. The serve routes and fleet
// scenarios have tests of their own in their packages.
func TestInvalidClusterRefusedAtEveryEntryPoint(t *testing.T) {
	q := exampleQuery(t)
	p := Placement{0, 1, 2}
	if _, err := Execute(q, exampleCluster(), p); err != nil {
		t.Fatalf("valid cluster: %v", err)
	}
	for k, tc := range invalidClusters {
		refused := func(entry string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s with a %s: err = %v, want a refusal naming %q", entry, tc.name, err, tc.want)
			}
		}
		c := withInvalidHost(exampleCluster(), k)

		_, err := Execute(q, c, p)
		refused("Execute", err)

		cp, err := NewControlPlane(ControlPlaneConfig{Policy: ControlPolicy{Predictor: fixedCosts}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Deploy(context.Background(), cp, "d", q, c)
		refused("Deploy", err)
		if len(cp.List()) != 0 {
			t.Errorf("Deploy with a %s registered the deployment", tc.name)
		}

		oracle := &placement.SimOracle{Cfg: sim.Config{DurationS: 5, WarmupS: 1, StepS: 0.1}}
		_, err = placement.Search(context.Background(), oracle, q, c, placement.LocalSearch{}, placement.MinProcLatency,
			placement.Budget{MaxCandidates: 8}, placement.SearchOptions{Seed: 1})
		refused("Search with SimOracle", err)

		_, err = dataset.Build(dataset.BuildConfig{
			N: 2, Seed: 3, Gen: workload.DefaultConfig(3), Sim: sim.Config{DurationS: 5, WarmupS: 1, StepS: 0.1},
			ClusterFn: func(g *workload.Generator, _ int) *hardware.Cluster { return withInvalidHost(g.Cluster(), k) },
		})
		refused("dataset.Build", err)
	}
}

// TestRunRefusesBadUsedHost: sim.Run still refuses a placement onto an
// out-of-range, null or non-finite host.
func TestRunRefusesBadUsedHost(t *testing.T) {
	q, cfg := exampleQuery(t), sim.Config{DurationS: 5, WarmupS: 1, StepS: 0.1}
	for _, tc := range []struct {
		name string
		edit func(c *Cluster) Placement
		want string
	}{
		{"out of range", func(c *Cluster) Placement { return Placement{0, 1, len(c.Hosts)} }, "invalid host 3"},
		{"negative", func(*Cluster) Placement { return Placement{-1, 1, 2} }, "invalid host -1"},
		{"null", func(c *Cluster) Placement { c.Hosts[2] = nil; return Placement{0, 1, 2} }, "host 2 is null"},
		{"NaN", func(c *Cluster) Placement { c.Hosts[1].RAMMB = math.NaN(); return Placement{0, 1, 2} }, "ram must be finite"},
		{"infinite", func(c *Cluster) Placement { c.Hosts[0].NetLatencyMS = math.Inf(1); return Placement{0, 1, 2} }, "latency must be finite"},
	} {
		c := exampleCluster()
		p := tc.edit(c)
		if _, err := sim.Run(q, c, p, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s host: err = %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
}
