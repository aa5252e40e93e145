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

// invalidClusters are the three ways a cluster fails Cluster.Check on a
// host nothing is placed on: each appends one host to c, after the hosts
// a placement uses, and names what the refusal must mention.
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
var fixedCosts = placement.PredictorFunc(func(*stream.Analysis, hardware.Checked, sim.Placement) (placement.PredCosts, error) {
	return placement.PredCosts{ThroughputTPS: 1, ProcLatencyMS: 1, E2ELatencyMS: 1, Success: true}, nil
})

// TestInvalidClusterRefusedAtEveryEntryPoint: the simulator, the search
// and the control plane take a cluster only as checked, so every facade
// entry a cluster comes in by checks it itself and refuses an invalid one
// — a duplicate host ID, a null host or a NaN feature on a host the
// placement does not use. The serve routes and fleet scenarios have tests
// of their own in their packages.
func TestInvalidClusterRefusedAtEveryEntryPoint(t *testing.T) {
	_, model := facade(t)
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

		_, err = model.PredictCosts(q, c, p)
		refused("PredictCosts", err)
		_, err = model.PredictCostsBatch(q, c, []Placement{p})
		refused("PredictCostsBatch", err)
		_, _, err = model.OptimizePlacement(q, c, 8, MinProcLatency, 1)
		refused("OptimizePlacement", err)
		_, err = model.OptimizePlacementSearchCtx(context.Background(), q, c, LocalSearchStrategy{}, MinProcLatency,
			SearchBudget{MaxCandidates: 8}, SearchOpts{Seed: 1})
		refused("OptimizePlacementSearchCtx", err)
		_, err = HeuristicPlacement(q, c, 1)
		refused("HeuristicPlacement", err)

		_, err = dataset.Build(dataset.BuildConfig{
			N: 2, Seed: 3, Gen: workload.DefaultConfig(3), Sim: sim.Config{DurationS: 5, WarmupS: 1, StepS: 0.1},
			ClusterFn: func(g *workload.Generator, _ int) *hardware.Cluster { return withInvalidHost(g.Cluster(), k) },
		})
		refused("dataset.Build", err)
	}
}

// invalidQueries are ways a query fails Query.Analyze, each an edit
// of a valid query (nil for none), with what the refusal must name.
var invalidQueries = []struct {
	name string
	want string
	edit func(q *Query) *Query
}{
	{"nil query", "empty query", func(*Query) *Query { return nil }},
	{"null operator", "operator 3 is null", func(q *Query) *Query { q.Ops = append(q.Ops, nil); return q }},
	{"second sink", "exactly one sink, got 2", func(q *Query) *Query {
		q.Ops = append(q.Ops, &stream.Operator{ID: "sink-2", Type: stream.OpSink})
		q.Edges = append(q.Edges, stream.Edge{1, 3})
		return q
	}},
	{"query without edges", "must have exactly one", func(q *Query) *Query { q.Edges = nil; return q }},
	{"cycle", "cycle", func(q *Query) *Query { q.Edges = append(q.Edges, stream.Edge{2, 1}); return q }},
	{"NaN event rate", "event rate must be finite and positive, got NaN", func(q *Query) *Query {
		q.Ops[0].EventRate = math.NaN()
		return q
	}},
	{"infinite event rate", "event rate must be finite and positive, got +Inf", func(q *Query) *Query {
		q.Ops[0].EventRate = math.Inf(1)
		return q
	}},
	{"NaN selectivity", "selectivity NaN out of [0,1]", func(q *Query) *Query {
		q.Ops[1].Selectivity = math.NaN()
		return q
	}},
	{"NaN window size", "window size must be finite and positive, got NaN", func(q *Query) *Query {
		return windowed(q, stream.Window{Type: stream.WindowSliding, Size: math.NaN(), Slide: 1})
	}},
	{"infinite window size", "window size must be finite and positive, got +Inf", func(q *Query) *Query {
		return windowed(q, stream.Window{Type: stream.WindowTumbling, Size: math.Inf(1), Slide: math.Inf(1)})
	}},
	{"NaN window slide", "window slide must be finite and positive, got NaN", func(q *Query) *Query {
		return windowed(q, stream.Window{Type: stream.WindowSliding, Size: 10, Slide: math.NaN()})
	}},
	{"infinite window slide", "window slide must be finite and positive, got +Inf", func(q *Query) *Query {
		return windowed(q, stream.Window{Type: stream.WindowSliding, Size: 10, Slide: math.Inf(1)})
	}},
	{"NaN aggregate selectivity", "selectivity NaN out of [0,1]", func(q *Query) *Query {
		q = windowed(q, stream.Window{Type: stream.WindowSliding, Size: 10, Slide: 2})
		q.Ops[1].Selectivity = math.NaN()
		return q
	}},
}

// windowed replaces the middle operator of exampleQuery's chain with an
// aggregation over w.
func windowed(q *Query, w stream.Window) *Query {
	q.Ops[1] = &stream.Operator{ID: q.Ops[1].ID, Type: stream.OpAggregate, Window: &w, Selectivity: 0.5}
	return q
}

// TestInvalidQueryRefusedAtEveryEntryPoint: the simulator, the search,
// the featurizers and the control plane take a query only as analysed, so
// every facade entry analyses the query it is given and refuses an
// invalid one — nil, with a null operator, two sinks, no edges, a cycle,
// or a NaN or infinite rate, selectivity or window — with Query.Analyze's error, before it runs, draws, scores or
// registers anything. The serve routes have tests of their own.
func TestInvalidQueryRefusedAtEveryEntryPoint(t *testing.T) {
	_, model := facade(t)
	c := exampleCluster()
	for _, tc := range invalidQueries {
		q := tc.edit(exampleQuery(t))
		p := make(Placement, 3)
		if q != nil {
			p = make(Placement, len(q.Ops))
		}
		refused := func(entry string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "invalid query: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s with a %s: err = %v, want Analyze's refusal naming %q", entry, tc.name, err, tc.want)
			}
		}

		_, err := Execute(q, c, p)
		refused("Execute", err)
		_, err = HeuristicPlacement(q, c, 1)
		refused("HeuristicPlacement", err)

		_, err = model.PredictCosts(q, c, p)
		refused("PredictCosts", err)
		_, err = model.PredictCostsBatch(q, c, []Placement{p})
		refused("PredictCostsBatch", err)
		_, _, err = model.OptimizePlacement(q, c, 8, MinProcLatency, 1)
		refused("OptimizePlacement", err)
		_, err = model.OptimizePlacementSearchCtx(context.Background(), q, c, LocalSearchStrategy{}, MinProcLatency,
			SearchBudget{MaxCandidates: 8}, SearchOpts{Seed: 1})
		refused("OptimizePlacementSearchCtx", err)

		scored := 0
		counting := placement.PredictorFunc(func(a *stream.Analysis, k hardware.Checked, p sim.Placement) (placement.PredCosts, error) {
			scored++
			return fixedCosts(a, k, p)
		})
		cp, err := NewControlPlane(ControlPlaneConfig{Policy: ControlPolicy{Predictor: counting}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Deploy(context.Background(), cp, "d", q, c)
		refused("Deploy", err)
		if len(cp.List()) != 0 || scored != 0 {
			t.Errorf("Deploy with a %s registered %d deployments and scored %d candidates", tc.name, len(cp.List()), scored)
		}
	}
}

// TestRunRefusesBadUsedHost: sim.Run still refuses a placement onto an
// out-of-range or negative host index; a null or non-finite host is
// refused by Cluster.Check before any run.
func TestRunRefusesBadUsedHost(t *testing.T) {
	q, cfg := exampleQuery(t), sim.Config{DurationS: 5, WarmupS: 1, StepS: 0.1}
	a, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	k, err := exampleCluster().Check()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    Placement
		want string
	}{
		{"out of range", Placement{0, 1, 3}, "invalid host 3"},
		{"negative", Placement{-1, 1, 2}, "invalid host -1"},
	} {
		if _, err := sim.Run(a, k, tc.p, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s host: err = %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		edit func(c *Cluster)
		want string
	}{
		{"null", func(c *Cluster) { c.Hosts[2] = nil }, "invalid cluster: host 2 is null"},
		{"NaN", func(c *Cluster) { c.Hosts[1].RAMMB = math.NaN() }, "invalid cluster: host fog: ram must be finite"},
		{"infinite", func(c *Cluster) { c.Hosts[0].NetLatencyMS = math.Inf(1) }, "invalid cluster: host edge: latency must be finite"},
	} {
		c := exampleCluster()
		tc.edit(c)
		if _, err := c.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s host: err = %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
}
