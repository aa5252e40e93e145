package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"costream/internal/hardware"
	"costream/internal/stream"
)

// demandOf derives the run's rates and returns them with demand's load.
func demandOf(t *testing.T, g generatedRun) (*stream.Rates, load) {
	t.Helper()
	a, err := g.q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return &a.Rates, demand(g.q, g.c, g.p, &a.Rates)
}

// cores is operator i's CPU demand in cores: its in-rate times its
// per-tuple cost with the GC multiplier of its host.
func (l load) cores(q *stream.Query, r *stream.Rates, i int) float64 {
	return inRate(q, r, i) * l.baseUS[i] * l.gc[i] / 1e6
}

// underCapacity reports whether l puts every used host of run g under its
// cores and its outgoing bandwidth.
func (l load) underCapacity(g generatedRun, r *stream.Rates) bool {
	cpu, bits := make([]float64, len(g.c.Hosts)), make([]float64, len(g.c.Hosts))
	for i, h := range g.p {
		cpu[h] += l.cores(g.q, r, i)
		bits[h] += l.bits[i]
	}
	for _, h := range g.p {
		if cpu[h] >= g.c.Hosts[h].Cores() || bits[h] >= g.c.Hosts[h].NetBandwidthMbps*mbitToBits {
			return false
		}
	}
	return true
}

// withHost returns a copy of c whose host h is edited by edit; c and its
// hosts are left as they are.
func withHost(c *hardware.Cluster, h int, edit func(*hardware.Host)) *hardware.Cluster {
	hosts := slices.Clone(c.Hosts)
	host := *hosts[h]
	edit(&host)
	hosts[h] = &host
	return &hardware.Cluster{Hosts: hosts}
}

// TestDemandIsWhatTheRunMeasures: a noise-free run that demand puts under
// every used host's cores and outgoing bandwidth, and that does not
// crash, measures demand. It is not backpressured, each operator uses
// in-rate × baseUS × gc / 1e6 cores and sends demand's bits to other
// hosts, and the sink receives its logical in-rate: tuples are conserved
// through every selectivity.
func TestDemandIsWhatTheRunMeasures(t *testing.T) {
	// The measured figures are sums of one charge per measured step (600
	// at testConfig), each rounded, divided by the measured time, so they
	// drift from demand's closed form by up to a few hundred roundings of
	// 2^-53 (3e-14 is the largest seen). 1e-12 covers that and nothing of
	// the model: one step's tuples lost is 1/600 of the figure.
	const tol = 1e-12
	near := func(got, want float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }
	kept := 0
	for seed := int64(1); kept < 100; seed++ {
		if seed > 20 {
			t.Fatalf("only %d runs under capacity in %d batches", kept, seed-1)
		}
		for k, g := range generatedRuns(seed, 20, 3, 6, 220) {
			g.cfg.NoiseStd = 0
			r, l := demandOf(t, g)
			if l.crashed || !l.underCapacity(g, r) {
				continue
			}
			kept++
			m, err := Run(analyzed(g.q), checked(g.c), g.p, g.cfg)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, k, err)
			}
			if m.Backpressured {
				t.Errorf("seed %d run %d: backpressured at %v tuples/s under capacity", seed, k, m.BackpressureRate)
			}
			for i, op := range m.PerOp {
				if got, want := op.CPUUtil*g.c.Hosts[g.p[i]].Cores(), l.cores(g.q, r, i); !near(got, want) {
					t.Errorf("seed %d run %d op %d: measured %v cores, demand %v", seed, k, i, got, want)
				}
				if got, want := op.NetOutMbps*mbitToBits, l.bits[i]; !near(got, want) {
					t.Errorf("seed %d run %d op %d: measured %v bits/s, demand %v", seed, k, i, got, want)
				}
			}
			// A window that receives less than one tuple is a failed run
			// with no throughput (Definition 5).
			want := r.In[g.q.Sink()]
			if want*g.cfg.DurationS < 1 {
				want = 0
			}
			if got := m.ThroughputTPS; !near(got, want) {
				t.Errorf("seed %d run %d: throughput %v, sink in-rate %v", seed, k, got, r.In[g.q.Sink()])
			}
		}
	}
}

// TestColocatingRemovesTheEdgesBits: moving an operator onto its
// consumer's host removes that edge's bits from demand and from the run's
// NetOutMbps. Only the operator and its producers, whose edges into it
// may change sides, see their bits move.
func TestColocatingRemovesTheEdgesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	moved := 0
	for k, g := range generatedRuns(5, 100, 3, 6, 220) {
		var cut []int // operators whose one consumer runs on another host
		for _, e := range g.q.Edges {
			if g.p[e[0]] != g.p[e[1]] {
				cut = append(cut, e[0])
			}
		}
		if len(cut) == 0 {
			continue
		}
		u := cut[rng.Intn(len(cut))]
		r, before := demandOf(t, g)
		v := r.Topo.Downs(u)[0]
		was, err := Run(analyzed(g.q), checked(g.c), g.p, g.cfg)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		g.p = slices.Clone(g.p)
		g.p[u] = g.p[v]
		_, after := demandOf(t, g)
		m, err := Run(analyzed(g.q), checked(g.c), g.p, g.cfg)
		if err != nil {
			t.Fatalf("run %d moved: %v", k, err)
		}
		moved++
		if r.Out[u] > 0 && !(before.bits[u] > 0) {
			t.Errorf("run %d: op %d emits %v tuples/s to another host in %v bits/s", k, u, r.Out[u], before.bits[u])
		}
		if !was.Crashed && was.PerOp[u].OutRate > 0 && !(was.PerOp[u].NetOutMbps > 0) {
			t.Errorf("run %d: op %d emitted %v tuples/s to another host and measured %v Mbit/s", k, u, was.PerOp[u].OutRate, was.PerOp[u].NetOutMbps)
		}
		if after.bits[u] != 0 || m.PerOp[u].NetOutMbps != 0 {
			t.Errorf("run %d: op %d on its consumer's host still sends %v bits/s, measured %v Mbit/s", k, u, after.bits[u], m.PerOp[u].NetOutMbps)
		}
		for w := range g.q.Ops {
			if w != u && !slices.Contains(r.Topo.Ups(u), w) && after.bits[w] != before.bits[w] {
				t.Errorf("run %d: moving op %d moved op %d's bits from %v to %v", k, u, w, before.bits[w], after.bits[w])
			}
		}
	}
	if moved < 100 {
		t.Fatalf("only %d runs had an operator to move", moved)
	}
}

// TestDemandScalesWithSourceRates: scaling every source rate by k scales
// every operator's CPU and bit demand by k, for plans whose every window
// is count-based (filters, aggregates and joins alike). A time-based
// window holds rate × seconds tuples: a join over it emits in the product
// of its input rates, an aggregate over it emits in its groups per slide,
// and its state, and so its host's GC multiplier, grows with the rate.
// k is a power of two, so the scaled figures are exact and compare equal.
func TestDemandScalesWithSourceRates(t *testing.T) {
	covered := 0
	for k, g := range generatedRuns(11, 150, 3, 6, 220) {
		if slices.ContainsFunc(g.q.Ops, func(op *stream.Operator) bool {
			return op.Window != nil && op.Window.Policy != stream.WindowCountBased
		}) {
			continue
		}
		covered++
		r, l := demandOf(t, g)
		for _, f := range []float64{0.5, 4} {
			scaled := g
			scaled.q = g.q.Clone()
			for _, src := range scaled.q.Sources() {
				scaled.q.Ops[src].EventRate *= f
			}
			rs, ls := demandOf(t, scaled)
			if ls.crashed != l.crashed {
				t.Errorf("run %d ×%v: crash verdict %v, unscaled %v", k, f, ls.crashed, l.crashed)
			}
			for i := range g.q.Ops {
				if got, want := ls.cores(scaled.q, rs, i), f*l.cores(g.q, r, i); got != want {
					t.Errorf("run %d ×%v op %d: %v cores, want %v", k, f, i, got, want)
				}
				if got, want := ls.bits[i], f*l.bits[i]; got != want {
					t.Errorf("run %d ×%v op %d: %v bits/s, want %v", k, f, i, got, want)
				}
			}
		}
	}
	if covered < 30 {
		t.Fatalf("only %d plans without a time-based window", covered)
	}
}

// TestMoreBandwidthNeverLowersThroughput: doubling one used host's
// outgoing bandwidth never lowers the run's throughput.
func TestMoreBandwidthNeverLowersThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for k, g := range generatedRuns(13, 100, 3, 6, 220) {
		base, err := Run(analyzed(g.q), checked(g.c), g.p, g.cfg)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		h := g.p[rng.Intn(len(g.p))]
		m, err := Run(analyzed(g.q), checked(withHost(g.c, h, func(host *hardware.Host) { host.NetBandwidthMbps *= 2 })), g.p, g.cfg)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		if m.ThroughputTPS < base.ThroughputTPS {
			t.Errorf("run %d: doubling host %d's bandwidth lowered throughput from %v to %v", k, h, base.ThroughputTPS, m.ThroughputTPS)
		}
	}
}

// TestMoreLinkDelayNeverLowersLatency: raising one used host's outgoing
// latency never lowers the run's processing latency.
func TestMoreLinkDelayNeverLowersLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for k, g := range generatedRuns(17, 100, 3, 6, 220) {
		base, err := Run(analyzed(g.q), checked(g.c), g.p, g.cfg)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		h := g.p[rng.Intn(len(g.p))]
		m, err := Run(analyzed(g.q), checked(withHost(g.c, h, func(host *hardware.Host) { host.NetLatencyMS = 2*host.NetLatencyMS + 1 })), g.p, g.cfg)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		if m.ProcLatencyMS < base.ProcLatencyMS {
			t.Errorf("run %d: raising host %d's latency lowered Lp from %v to %v", k, h, base.ProcLatencyMS, m.ProcLatencyMS)
		}
	}
}
