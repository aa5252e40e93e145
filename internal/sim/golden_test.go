package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"costream/internal/hardware"
	"costream/internal/stream"
	"costream/internal/workload"
)

// hexMetrics renders every field of m with hex floats, one line per
// operator and host, so two renderings are equal exactly when the metrics
// are equal bit for bit.
func hexMetrics(m *Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "T=%x Lp=%x Le=%x R=%x sink=%x bp=%v ok=%v crashed=%v\n",
		m.ThroughputTPS, m.ProcLatencyMS, m.E2ELatencyMS, m.BackpressureRate, m.SinkTuples,
		m.Backpressured, m.Success, m.Crashed)
	for i, op := range m.PerOp {
		fmt.Fprintf(&b, "op%d host=%d in=%x out=%x svc=%x cpu=%x q=%x net=%x\n",
			i, op.Host, op.InRate, op.OutRate, op.ServiceRate, op.CPUUtil, op.AvgQueue, op.NetOutMbps)
	}
	for h, p := range m.HostMemPressure {
		fmt.Fprintf(&b, "host%d mem=%x\n", h, p)
	}
	return b.String()
}

// TestRunGolden pins the simulator's output bits on two fixed runs. The
// simulator labels every training trace, so an optimisation of the step
// loop must not move them: the values below were recorded before the
// engine's per-step allocations were removed and may only change with a
// deliberate change of the physics.
func TestRunGolden(t *testing.T) {
	// A linear query spread over three hosts: the weak middle host runs
	// out of CPU and its 2 Mbit/s uplink throttles the filter's output.
	linear := linearQuery(12000, 0.8)
	fog := weakHost("fog")
	fog.NetBandwidthMbps = 2
	spread := &hardware.Cluster{Hosts: []*hardware.Host{strongHost("edge"), fog, strongHost("cloud")}}

	// A join whose two sources and the join itself share one overloaded
	// host (the water-fill has to ration cores), with the sink remote.
	b := stream.NewBuilder()
	s1 := b.AddSource(6400, []stream.DataType{stream.TypeInt, stream.TypeInt})
	s2 := b.AddSource(3200, []stream.DataType{stream.TypeInt, stream.TypeDouble})
	j := b.AddJoin(stream.TypeInt, stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowCountBased, Size: 40, Slide: 40}, 0.001)
	k := b.AddSink()
	b.Connect(s1, j).Connect(s2, j).Connect(j, k)
	join := b.MustBuild()
	shared := &hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "one", CPU: 100, RAMMB: 8000, NetLatencyMS: 5, NetBandwidthMbps: 100},
		strongHost("two"),
	}}

	for _, tc := range []struct {
		name string
		q    *stream.Query
		c    *hardware.Cluster
		p    Placement
		seed int64
		want string
	}{
		{"linear-spread", linear, spread, Placement{0, 1, 2}, 11, goldenLinearSpread},
		{"join-colocated", join, shared, Placement{0, 0, 0, 1}, 23, goldenJoinColocated},
	} {
		cfg := testConfig()
		cfg.Seed = tc.seed
		m, err := Run(analyzed(tc.q), checked(tc.c), tc.p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hexMetrics(m); got != tc.want {
			t.Errorf("%s: metrics moved\ngot:\n%swant:\n%s", tc.name, got, tc.want)
		}
	}
}

const goldenLinearSpread = `T=0x1.869ffffffffbdp+12 Lp=0x1.30fceb547f8c1p+09 Le=0x1.5408b41589815p+13 R=0x1.05b7fffffffd3p+12 sink=0x1.6e36p+17 bp=true ok=true crashed=false
op0 host=0 in=0x1.e847fffffffadp+12 out=0x1.e847fffffffadp+12 svc=0x1.e847fffffffadp+12 cpu=0x1p+00 q=0x0p+00 net=0x1.3ffffffffffc9p+01
op1 host=1 in=0x1.e847fffffffadp+12 out=0x1.869ffffffffbdp+12 svc=0x1.e847fffffffadp+12 cpu=0x1p+00 q=0x1.cf2c000000004p+11 net=0x1.fffffffffffa9p+00
op2 host=2 in=0x1.869ffffffffbdp+12 out=0x1.869ffffffffbdp+12 svc=0x1.869ffffffffbdp+12 cpu=0x1.583e7815c8a84p-04 q=0x0p+00 net=0x0p+00
host0 mem=0x1p-06
host1 mem=0x1p-01
host2 mem=0x1p-06
`

const goldenJoinColocated = `T=0x1.0dc798937f214p+07 Lp=0x1.2725280b39e0ap+10 Le=0x1.7b98a229b2757p+15 R=0x1.610ae677f7af1p+12 sink=0x1.f9d63e148e63bp+11 bp=true ok=true crashed=false
op0 host=0 in=0x1.db3986cd1d7ddp+10 out=0x1.db3986cd1d7ddp+10 svc=0x1.db3986cd1d7ddp+10 cpu=0x1.5555555555549p-02 q=0x0p+00 net=0x0p+00
op1 host=0 in=0x1.004d6fa981cd3p+11 out=0x1.004d6fa981cd3p+11 svc=0x1.004d6fa981cd3p+11 cpu=0x1.5555555555549p-02 q=0x0p+00 net=0x0p+00
op2 host=0 in=0x1.edea3310108c2p+11 out=0x1.0dc798937f214p+07 svc=0x1.a587de6676a04p+11 cpu=0x1.5555555555549p-02 q=0x1.e732ce147adbfp+11 net=0x1.ef0c404cabba9p-05
op3 host=1 in=0x1.0dc798937f214p+07 out=0x1.0dc798937f214p+07 svc=0x1.0dc798937f214p+07 cpu=0x1.ea8d4943a1fbbp-09 q=0x0p+00 net=0x0p+00
host0 mem=0x1.762c4ec4ec4ecp-04
host1 mem=0x1p-06
`

// TestRunAllocsIndependentOfDuration: the step loop allocates nothing, so
// a run six times as long allocates exactly as much.
func TestRunAllocsIndependentOfDuration(t *testing.T) {
	a := analyzed(linearQuery(9000, 0.8))
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongHost("edge"), weakHost("fog"), strongHost("cloud")}})
	allocs := func(durationS float64) float64 {
		cfg := testConfig()
		cfg.DurationS = durationS
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(a, c, Placement{0, 1, 2}, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(20), allocs(120); short != long {
		t.Fatalf("%v allocations for a 20 s run, %v for a 120 s run: the step loop allocates", short, long)
	}
}

// TestRunAllocsCeiling: a run allocates at most 14 heap objects on
// average over generated runs: it derives nothing from the query, whose
// analysis (made once by the caller) carries the topology and the rates
// that the engine, the load model and the latency walk read, and the
// engine's fixed-size state comes from a few slabs.
func TestRunAllocsCeiling(t *testing.T) {
	runs := generatedRuns(30, 20, 3, 6, 220)
	var total float64
	for _, r := range runs {
		a, c := analyzed(r.q), checked(r.c)
		total += testing.AllocsPerRun(3, func() {
			if _, err := Run(a, c, r.p, r.cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	avg := total / float64(len(runs))
	t.Logf("%.1f allocations per run on average", avg)
	if avg > 14 {
		t.Fatalf("%.1f allocations per run on average, want at most 14", avg)
	}
}

// generatedRun is one simulator input drawn by generatedRuns.
type generatedRun struct {
	q   *stream.Query
	c   *hardware.Cluster
	p   Placement
	cfg Config
}

// generatedRuns draws n runs per cluster size: workload.Generator queries
// on TrainingGrid clusters, each placed on a random subset of the hosts
// (so operators share hosts and most of a large cluster sits idle), with
// a random noise seed. A change to how workload.Generator or
// Grid.SampleCluster draws moves TestRunGoldenGenerated's digest too.
func generatedRuns(seed int64, n int, sizes ...int) []generatedRun {
	rng := rand.New(rand.NewSource(seed))
	gen := workload.New(workload.DefaultConfig(seed))
	grid := hardware.TrainingGrid()
	var runs []generatedRun
	for _, size := range sizes {
		for k := 0; k < n; k++ {
			q := gen.Query().Query()
			c := grid.SampleCluster(rng, size)
			used := rng.Perm(size)[:1+rng.Intn(min(size, len(q.Ops)))]
			p := make(Placement, len(q.Ops))
			for i := range p {
				p[i] = used[rng.Intn(len(used))]
			}
			cfg := testConfig()
			cfg.Seed = rng.Int63()
			runs = append(runs, generatedRun{q, c, p, cfg})
		}
	}
	return runs
}

// TestRunGoldenGenerated pins a digest of the output bits of 450 generated
// runs on 3-, 6- and 220-host clusters, recorded before the step loop was
// restricted to the hosts that run an operator. Like TestRunGolden it may
// only change with a deliberate change of the physics.
func TestRunGoldenGenerated(t *testing.T) {
	const want = "f5b958d5ba8a7a77ac6071804d2377dbf45a7b466dde50ce81562b69e806241c"
	h := sha256.New()
	for k, r := range generatedRuns(32, 150, 3, 6, 220) {
		m, err := Run(analyzed(r.q), checked(r.c), r.p, r.cfg)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		fmt.Fprintf(h, "run %d\n%s", k, hexMetrics(m))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest of the generated runs moved: got %s, want %s", got, want)
	}
}

// TestIdleHostsChangeNothing: a host that runs no operator is invisible to
// a run. Appending idle hosts, among them one of 300 MB whose base
// footprint alone is past crashPressure, leaves every field of the metrics
// bit-identical except the appended HostMemPressure entries.
func TestIdleHostsChangeNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	grid := hardware.TrainingGrid()
	tiny := &hardware.Host{ID: "tiny", CPU: 800, RAMMB: 300, NetLatencyMS: 1, NetBandwidthMbps: 10000}
	for k, r := range generatedRuns(9, 60, 3, 6) {
		base, err := Run(analyzed(r.q), checked(r.c), r.p, r.cfg)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		wider := &hardware.Cluster{Hosts: slices.Clone(r.c.Hosts)}
		for i := range 1 + rng.Intn(4) {
			wider.Hosts = append(wider.Hosts, grid.Sample(rng, fmt.Sprintf("idle-%d", i)))
		}
		at := len(r.c.Hosts) + rng.Intn(len(wider.Hosts)-len(r.c.Hosts)+1)
		wider.Hosts = slices.Insert(wider.Hosts, at, tiny)
		m, err := Run(analyzed(r.q), checked(wider), r.p, r.cfg)
		if err != nil {
			t.Fatalf("run %d with idle hosts: %v", k, err)
		}
		if len(m.HostMemPressure) != len(wider.Hosts) {
			t.Fatalf("run %d: %d memory pressures for %d hosts", k, len(m.HostMemPressure), len(wider.Hosts))
		}
		if p := m.HostMemPressure[at]; p <= crashPressure {
			t.Fatalf("run %d: the 300 MB host's pressure %v is not past %v", k, p, crashPressure)
		}
		m.HostMemPressure = m.HostMemPressure[:len(r.c.Hosts)]
		if got, want := hexMetrics(m), hexMetrics(base); got != want {
			t.Errorf("run %d: idle hosts moved the metrics\ngot:\n%swant:\n%s", k, got, want)
		}
	}
}
