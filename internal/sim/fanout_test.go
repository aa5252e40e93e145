package sim

import (
	"math"
	"testing"

	"costream/internal/hardware"
	"costream/internal/stream"
)

// fanOutFrom clones q and gives operator op a second consumer: a copy of
// template appended to the plan. Such plans violate the paper's
// tree-shaped operator contract (Query.Analyze rejects them), so these
// tests drive the engine directly to lock in its per-downstream
// accounting for any future DAG support.
func fanOutFrom(q *stream.Query, op int, template int, id string) *stream.Query {
	out := q.Clone()
	cp := *out.Ops[template]
	cp.ID = id
	cp.FieldTypes = append([]stream.DataType(nil), out.Ops[template].FieldTypes...)
	out.Ops = append(out.Ops, &cp)
	out.Edges = append(out.Edges, [2]int{op, len(out.Ops) - 1})
	return out
}

func linearFilterQuery(rate, sel float64) *stream.Query {
	b := stream.NewBuilder()
	s := b.AddSource(rate, []stream.DataType{stream.TypeInt, stream.TypeInt, stream.TypeInt})
	f := b.AddFilter(stream.FilterGT, stream.TypeInt, sel)
	k := b.AddSink()
	b.Chain(s, f, k)
	return b.MustBuild()
}

func runEngine(t *testing.T, q *stream.Query, c *hardware.Cluster, p Placement, cfg Config) *Metrics {
	t.Helper()
	rates, err := q.DeriveRates()
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(q, c, p, &rates, cfg).run()
}

// TestValidateRejectsFanOut locks in the public contract: plans where an
// operator feeds more than one consumer never reach the engine through
// sim.Run (user-supplied queries on costream-serve included), because
// sim.Run takes only an analysis and Query.Analyze refuses them.
func TestValidateRejectsFanOut(t *testing.T) {
	q := fanOutFrom(linearFilterQuery(800, 0.9), 1, 2, "sink-2")
	if a, err := q.Analyze(); a != nil || err == nil {
		t.Fatal("fan-out plan passed Query.Analyze")
	}
}

// TestFanOutNetworkPerDownstream: each cross-host downstream consumes
// sender bandwidth separately. With two remote consumers the fan-out
// operator must ship two copies of its output stream, not one.
func TestFanOutNetworkPerDownstream(t *testing.T) {
	cfg := testConfig()
	cfg.NoiseStd = 0

	base := linearFilterQuery(800, 0.9)
	q := fanOutFrom(base, 1, 2, "sink-2") // filter now feeds two sinks
	c := &hardware.Cluster{Hosts: []*hardware.Host{strongHost("a"), strongHost("b"), strongHost("c")}}

	// One remote consumer: second sink co-located with the filter.
	oneRemote := runEngine(t, q, c, Placement{0, 0, 1, 0}, cfg)
	// Two remote consumers.
	twoRemote := runEngine(t, q, c, Placement{0, 0, 1, 2}, cfg)

	one := oneRemote.PerOp[1].NetOutMbps
	two := twoRemote.PerOp[1].NetOutMbps
	if one <= 0 {
		t.Fatalf("baseline run shipped no bytes (NetOutMbps=%v)", one)
	}
	if math.Abs(two-2*one) > 1e-6*one {
		t.Fatalf("two remote downstreams shipped %.6f Mbps, want 2x the single-consumer %.6f", two, one)
	}
	// Broadcast semantics: both sinks see the same arrival rate.
	if a, b := twoRemote.PerOp[2].InRate, twoRemote.PerOp[3].InRate; math.Abs(a-b) > 1e-9 {
		t.Fatalf("fan-out consumers see different arrival rates: %v vs %v", a, b)
	}
}

// TestFanOutBlockingTightestQueue: emission is throttled by the slowest
// downstream, wherever it sits in the downstream list. Before the
// per-downstream fix only downs[0] was consulted, so a saturated second
// consumer was silently ignored and backpressure under-reported.
func TestFanOutBlockingTightestQueue(t *testing.T) {
	cfg := testConfig()
	cfg.NoiseStd = 0

	// source fans out to a fast filter chain (downs[0]) and a slow one
	// (downs[1]) placed on a starved host.
	b := stream.NewBuilder()
	s := b.AddSource(25600, []stream.DataType{stream.TypeInt, stream.TypeInt, stream.TypeInt})
	f := b.AddFilter(stream.FilterGT, stream.TypeInt, 0.9)
	k := b.AddSink()
	b.Chain(s, f, k)
	q := b.MustBuild()
	// Add the slow branch: filter copy + its own sink, fed by the source.
	q = fanOutFrom(q, 0, 1, "filter-slow") // op 3
	q.Edges = append(q.Edges, [2]int{3, 4})
	cp := *q.Ops[2]
	cp.ID = "sink-slow"
	q.Ops = append(q.Ops, &cp) // op 4

	c := &hardware.Cluster{Hosts: []*hardware.Host{strongHost("a"), strongHost("b"), weakHost("w")}}
	// Fast branch on strong hosts, slow filter on the weak host.
	m := runEngine(t, q, c, Placement{0, 0, 1, 2, 1}, cfg)

	if !m.Backpressured {
		t.Fatalf("saturated second downstream did not backpressure the source: %+v", m)
	}
	if m.PerOp[3].AvgQueue < queueCapTuples/2 {
		t.Fatalf("slow branch queue %v never filled (cap %v); scenario does not exercise blocking", m.PerOp[3].AvgQueue, float64(queueCapTuples))
	}
}
