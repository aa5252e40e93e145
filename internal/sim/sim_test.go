package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"costream/internal/hardware"
	"costream/internal/stream"
)

func strongHost(id string) *hardware.Host {
	return &hardware.Host{ID: id, CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000}
}

func weakHost(id string) *hardware.Host {
	return &hardware.Host{ID: id, CPU: 50, RAMMB: 1000, NetLatencyMS: 80, NetBandwidthMbps: 25}
}

// checked checks a test cluster, which must be valid.
func checked(c *hardware.Cluster) hardware.Checked {
	k, err := c.Check()
	if err != nil {
		panic(err)
	}
	return k
}

// analyzed is q's analysis; the test's query must be valid.
func analyzed(q *stream.Query) *stream.Analysis {
	a, err := q.Analyze()
	if err != nil {
		panic(err)
	}
	return a
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.DurationS = 30
	cfg.WarmupS = 5
	return cfg
}

func linearQuery(rate, sel float64) *stream.Query {
	b := stream.NewBuilder()
	s := b.AddSource(rate, []stream.DataType{stream.TypeInt, stream.TypeDouble})
	f := b.AddFilter(stream.FilterGT, stream.TypeInt, sel)
	k := b.AddSink()
	b.Chain(s, f, k)
	return b.MustBuild()
}

func aggQuery(rate float64, w stream.Window, sel float64) *stream.Query {
	b := stream.NewBuilder()
	s := b.AddSource(rate, []stream.DataType{stream.TypeInt, stream.TypeDouble})
	a := b.AddAggregate(stream.AggMean, stream.TypeDouble, stream.TypeInt, true, w, sel)
	k := b.AddSink()
	b.Chain(s, a, k)
	return b.MustBuild()
}

func TestLinearQueryOnStrongHost(t *testing.T) {
	q := linearQuery(1000, 0.5)
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongHost("a")}})
	m, err := Run(analyzed(q), c, Placement{0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Success {
		t.Fatal("query should succeed on a strong host")
	}
	if m.Backpressured {
		t.Errorf("unexpected backpressure: rate %v", m.BackpressureRate)
	}
	// Expected sink arrival rate: 1000 * 0.5 = 500 ev/s.
	if math.Abs(m.ThroughputTPS-500) > 25 {
		t.Errorf("throughput = %v, want ~500", m.ThroughputTPS)
	}
	if m.ProcLatencyMS <= 0 || m.ProcLatencyMS > 200 {
		t.Errorf("proc latency = %v ms, want small positive", m.ProcLatencyMS)
	}
	if m.E2ELatencyMS <= m.ProcLatencyMS {
		t.Errorf("E2E latency %v must exceed processing latency %v", m.E2ELatencyMS, m.ProcLatencyMS)
	}
}

func TestWeakCPUCausesBackpressure(t *testing.T) {
	// 25600 ev/s against 0.5 reference cores cannot keep up.
	a := analyzed(linearQuery(25600, 0.9))
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{weakHost("w")}})
	m, err := Run(a, c, Placement{0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Backpressured {
		t.Fatalf("expected backpressure on weak host, metrics: %v", m)
	}
	if m.BackpressureRate <= 0 {
		t.Errorf("backpressure rate = %v, want > 0", m.BackpressureRate)
	}
	// Backpressure inflates the end-to-end latency far beyond processing.
	if m.E2ELatencyMS < 5*m.ProcLatencyMS {
		t.Errorf("E2E %v should dwarf Lp %v under backpressure", m.E2ELatencyMS, m.ProcLatencyMS)
	}
}

func TestThroughputCappedByCPU(t *testing.T) {
	a := analyzed(linearQuery(25600, 0.9))
	weak := &hardware.Cluster{Hosts: []*hardware.Host{weakHost("w")}}
	strong := &hardware.Cluster{Hosts: []*hardware.Host{strongHost("s")}}
	mw, err := Run(a, checked(weak), Placement{0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Run(a, checked(strong), Placement{0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mw.ThroughputTPS >= ms.ThroughputTPS {
		t.Errorf("weak host throughput %v should be below strong host %v", mw.ThroughputTPS, ms.ThroughputTPS)
	}
	if !ms.Success {
		t.Error("strong host run should succeed")
	}
}

func TestLargeWindowOnSmallRAMCrashes(t *testing.T) {
	// Time window of 16 s over 25600 ev/s wide tuples -> hundreds of MB of
	// join state; a 1 GB host dies, a 32 GB host survives.
	b := stream.NewBuilder()
	s1 := b.AddSource(25600, []stream.DataType{stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString})
	s2 := b.AddSource(25600, []stream.DataType{stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString})
	j := b.AddJoin(stream.TypeString, stream.Window{Type: stream.WindowSliding, Policy: stream.WindowTimeBased, Size: 16, Slide: 8}, 0.0001)
	k := b.AddSink()
	b.Connect(s1, j).Connect(s2, j).Connect(j, k)
	q := b.MustBuild()

	small := checked(&hardware.Cluster{Hosts: []*hardware.Host{weakHost("w")}})
	ms, err := Run(analyzed(q), small, Placement{0, 0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Crashed || ms.Success {
		t.Errorf("expected crash on 1 GB host, got crashed=%v success=%v pressure=%v",
			ms.Crashed, ms.Success, ms.HostMemPressure)
	}
	big := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongHost("s")}})
	mb, err := Run(analyzed(q), big, Placement{0, 0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mb.Crashed {
		t.Errorf("32 GB host should not crash, pressure=%v", mb.HostMemPressure)
	}
}

func TestZeroOutputMeansFailure(t *testing.T) {
	// Selectivity 0: nothing ever reaches the sink (Definition 5).
	q := linearQuery(100, 0)
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongHost("a")}})
	m, err := Run(analyzed(q), c, Placement{0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Success {
		t.Error("query with zero selectivity should be unsuccessful")
	}
	if m.Crashed {
		t.Error("logical failure must not be reported as crash")
	}
	if m.ThroughputTPS != 0 {
		t.Errorf("throughput = %v, want 0", m.ThroughputTPS)
	}
}

func TestNetworkLatencyAddsUp(t *testing.T) {
	q := linearQuery(500, 0.5)
	mk := func(lat float64) *hardware.Cluster {
		return &hardware.Cluster{Hosts: []*hardware.Host{
			{ID: "edge", CPU: 400, RAMMB: 8000, NetLatencyMS: lat, NetBandwidthMbps: 800},
			{ID: "cloud", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
		}}
	}
	// Co-located on cloud vs split across a slow link.
	cfg := testConfig()
	colo, err := Run(analyzed(q), checked(mk(160)), Placement{1, 1, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	split, err := Run(analyzed(q), checked(mk(160)), Placement{0, 0, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if split.ProcLatencyMS < colo.ProcLatencyMS+100 {
		t.Errorf("split across 160 ms link: Lp=%v, co-located: Lp=%v; want >= +100ms",
			split.ProcLatencyMS, colo.ProcLatencyMS)
	}
	// A fast link should cost far less.
	fast, err := Run(analyzed(q), checked(mk(1)), Placement{0, 0, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.ProcLatencyMS >= split.ProcLatencyMS {
		t.Errorf("1 ms link Lp=%v should beat 160 ms link Lp=%v", fast.ProcLatencyMS, split.ProcLatencyMS)
	}
}

func TestBandwidthBottleneckThrottlesThroughput(t *testing.T) {
	// Wide string tuples at high rate over a 25 Mbit/s uplink:
	// ~25600 ev/s * (24+8*32)*8 bits ~ 57 Mbit/s demand > 25 Mbit/s.
	b := stream.NewBuilder()
	s := b.AddSource(25600, []stream.DataType{
		stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString,
		stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString})
	f := b.AddFilter(stream.FilterNE, stream.TypeInt, 1.0)
	k := b.AddSink()
	b.Chain(s, f, k)
	q := b.MustBuild()
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "edge", CPU: 800, RAMMB: 16000, NetLatencyMS: 5, NetBandwidthMbps: 25},
		{ID: "cloud", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}})
	m, err := Run(analyzed(q), c, Placement{0, 0, 1}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Backpressured {
		t.Errorf("expected bandwidth-induced backpressure, got %v", m)
	}
	if m.ThroughputTPS > 20000 {
		t.Errorf("throughput %v should be capped by the 25 Mbit/s uplink", m.ThroughputTPS)
	}
}

func TestWindowExtentDominatesLatency(t *testing.T) {
	w1 := stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowTimeBased, Size: 0.25, Slide: 0.25}
	w2 := stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowTimeBased, Size: 8, Slide: 8}
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongHost("a")}})
	cfg := testConfig()
	m1, err := Run(analyzed(aggQuery(1000, w1, 0.1)), c, Placement{0, 0, 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(analyzed(aggQuery(1000, w2, 0.1)), c, Placement{0, 0, 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ProcLatencyMS < m1.ProcLatencyMS+7000 {
		t.Errorf("8s window Lp=%v should exceed 0.25s window Lp=%v by ~7.75s", m2.ProcLatencyMS, m1.ProcLatencyMS)
	}
}

func TestCoLocationContention(t *testing.T) {
	// Two heavy filter chains on one small host vs spread over two hosts.
	b := stream.NewBuilder()
	s1 := b.AddSource(6400, []stream.DataType{stream.TypeString, stream.TypeString})
	s2 := b.AddSource(6400, []stream.DataType{stream.TypeString, stream.TypeString})
	j := b.AddJoin(stream.TypeInt, stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowCountBased, Size: 20, Slide: 20}, 0.01)
	k := b.AddSink()
	b.Connect(s1, j).Connect(s2, j).Connect(j, k)
	q := b.MustBuild()

	host := func(id string) *hardware.Host {
		return &hardware.Host{ID: id, CPU: 50, RAMMB: 8000, NetLatencyMS: 1, NetBandwidthMbps: 10000}
	}
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{host("a"), host("b"), host("c")}})
	all, err := Run(analyzed(q), c, Placement{0, 0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	spread, err := Run(analyzed(q), c, Placement{0, 1, 2, 2}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if spread.ThroughputTPS <= all.ThroughputTPS {
		t.Errorf("spreading should raise throughput: co-located %v vs spread %v",
			all.ThroughputTPS, spread.ThroughputTPS)
	}
}

func TestDeterminism(t *testing.T) {
	q := linearQuery(3200, 0.4)
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongHost("a"), weakHost("b")}})
	cfg := testConfig()
	m1, err := Run(analyzed(q), c, Placement{1, 0, 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(analyzed(q), c, Placement{1, 0, 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ThroughputTPS != m2.ThroughputTPS || m1.ProcLatencyMS != m2.ProcLatencyMS ||
		m1.E2ELatencyMS != m2.E2ELatencyMS || m1.Backpressured != m2.Backpressured {
		t.Errorf("same seed must reproduce metrics: %v vs %v", m1, m2)
	}
	cfg2 := cfg
	cfg2.Seed = 99
	m3, err := Run(analyzed(q), c, Placement{1, 0, 0}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if m3.ThroughputTPS == m1.ThroughputTPS {
		t.Log("different seeds produced identical throughput (possible but unlikely)")
	}
}

func TestRunValidation(t *testing.T) {
	q := linearQuery(100, 0.5)
	c := &hardware.Cluster{Hosts: []*hardware.Host{strongHost("a")}}
	if _, err := Run(analyzed(q), checked(c), Placement{0, 0}, testConfig()); err == nil {
		t.Error("short placement accepted")
	}
	if _, err := Run(analyzed(q), checked(c), Placement{0, 0, 5}, testConfig()); err == nil {
		t.Error("out-of-range host accepted")
	}
	if _, err := (&hardware.Cluster{}).Check(); err == nil {
		t.Error("empty cluster accepted")
	}

	// A config that measures nothing, or nothing finite, is refused with
	// the field named; each of these used to return a "failed" label.
	for _, tc := range []struct {
		name  string
		set   func(*Config)
		field string
	}{
		{"zero step", func(c *Config) { c.StepS = 0 }, "StepS"},
		{"negative step", func(c *Config) { c.StepS = -0.05 }, "StepS"},
		{"NaN step", func(c *Config) { c.StepS = math.NaN() }, "StepS"},
		{"step longer than the run", func(c *Config) { c.StepS = 1000 }, "StepS"},
		{"steps past the bound", func(c *Config) { c.StepS = 1e-7 }, "StepS"},
		{"zero duration", func(c *Config) { c.DurationS = 0 }, "DurationS"},
		{"duration under half a step", func(c *Config) { c.DurationS = 0.01 }, "DurationS"},
		{"infinite duration", func(c *Config) { c.DurationS = math.Inf(1) }, "DurationS"},
		{"duration past the bound", func(c *Config) { c.DurationS, c.StepS = 2e9, 1e3 }, "DurationS"},
		{"negative warm-up", func(c *Config) { c.WarmupS = -1 }, "WarmupS"},
		{"NaN warm-up", func(c *Config) { c.WarmupS = math.NaN() }, "WarmupS"},
		{"NaN noise", func(c *Config) { c.NoiseStd = math.NaN() }, "NoiseStd"},
		{"negative noise", func(c *Config) { c.NoiseStd = -0.1 }, "NoiseStd"},
		{"noise past the bound", func(c *Config) { c.NoiseStd = 2 }, "NoiseStd"},
	} {
		cfg := testConfig()
		tc.set(&cfg)
		m, err := Run(analyzed(q), checked(c), Placement{0, 0, 0}, cfg)
		if err == nil {
			t.Errorf("%s: accepted, returned %v", tc.name, m)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}

	// The shortest and the un-warmed runs the bounds allow still run.
	for _, set := range []func(*Config){
		func(c *Config) { c.DurationS = c.StepS },
		func(c *Config) { c.WarmupS, c.NoiseStd = 0, 0 },
		func(c *Config) { c.NoiseStd = maxNoiseStd },
	} {
		cfg := testConfig()
		set(&cfg)
		if _, err := Run(analyzed(q), checked(c), Placement{0, 0, 0}, cfg); err != nil {
			t.Errorf("%+v refused: %v", cfg, err)
		}
	}
}

// FuzzRunConfig: Run either refuses a configuration or returns finite
// metrics over a measured window of at least one step, for any placement
// of a join on four hosts, one of them too small to run anything. Those
// metrics are the stepping oracle's, bit for bit: a run that repeats and
// is replayed ends where stepping it through every step would.
func FuzzRunConfig(f *testing.F) {
	b := stream.NewBuilder()
	s1 := b.AddSource(3200, []stream.DataType{stream.TypeInt, stream.TypeString})
	s2 := b.AddSource(800, []stream.DataType{stream.TypeInt, stream.TypeDouble})
	j := b.AddJoin(stream.TypeInt, stream.Window{Type: stream.WindowSliding, Policy: stream.WindowTimeBased, Size: 4, Slide: 2}, 0.01)
	k := b.AddSink()
	b.Connect(s1, j).Connect(s2, j).Connect(j, k)
	q := b.MustBuild()
	c := &hardware.Cluster{Hosts: []*hardware.Host{strongHost("a"), weakHost("b"), midHost("c", 4000), midHost("d", 300)}}

	def := DefaultConfig()
	f.Add(def.DurationS, def.WarmupS, def.StepS, def.NoiseStd, int64(1), byte(0), byte(1), byte(1), byte(2))
	f.Add(0.01, def.WarmupS, def.StepS, def.NoiseStd, int64(2), byte(0), byte(0), byte(0), byte(0))
	f.Add(30.0, -1.0, 0.05, 0.05, int64(3), byte(0), byte(1), byte(2), byte(3))
	f.Add(30.0, 5.0, math.NaN(), 0.05, int64(4), byte(2), byte(2), byte(0), byte(0))
	f.Add(math.Inf(1), 5.0, 1000.0, 0.05, int64(5), byte(1), byte(0), byte(1), byte(0))
	f.Add(1e6, 0.0, 1e5, 1.0, int64(6), byte(0), byte(1), byte(2), byte(2))
	f.Fuzz(func(t *testing.T, durationS, warmupS, stepS, noiseStd float64, seed int64, h0, h1, h2, h3 byte) {
		cfg := Config{DurationS: durationS, WarmupS: warmupS, StepS: stepS, NoiseStd: noiseStd, Seed: seed}
		steps := int(math.Round((warmupS + durationS) / stepS))
		if cfg.Validate() == nil && steps > 10000 {
			return // valid, but longer than a training trace: slow, not new
		}
		p := Placement{int(h0) % 4, int(h1) % 4, int(h2) % 4, int(h3) % 4}
		m, err := Run(analyzed(q), checked(c), p, cfg)
		if err != nil {
			return
		}
		if measured := steps - int(math.Round(warmupS/stepS)); measured < 1 {
			t.Fatalf("%+v: accepted with %d measured steps", cfg, measured)
		}
		if msg := nonFinite(m); msg != "" {
			t.Fatalf("%+v on %v: %s", cfg, p, msg)
		}
		if _, want, _, _ := stepped(t, q, c, p, cfg); hexMetrics(m) != hexMetrics(want) {
			t.Fatalf("%+v on %v: metrics differ from stepping every step\ngot:\n%swant:\n%s", cfg, p, hexMetrics(m), hexMetrics(want))
		}
	})
}

// nonFinite names the first NaN or infinite field of m, or returns "".
func nonFinite(m *Metrics) string {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	for _, f := range []struct {
		name string
		v    float64
	}{{"T", m.ThroughputTPS}, {"Lp", m.ProcLatencyMS}, {"Le", m.E2ELatencyMS}, {"R", m.BackpressureRate}, {"sink", m.SinkTuples}} {
		if bad(f.v) {
			return fmt.Sprintf("%s is %v", f.name, f.v)
		}
	}
	for i, op := range m.PerOp {
		for _, v := range []float64{op.InRate, op.OutRate, op.ServiceRate, op.CPUUtil, op.AvgQueue, op.NetOutMbps} {
			if bad(v) {
				return fmt.Sprintf("op%d: %+v", i, op)
			}
		}
	}
	for h, v := range m.HostMemPressure {
		if bad(v) {
			return fmt.Sprintf("host%d mem=%v", h, v)
		}
	}
	return ""
}

func TestPerOpStatsSane(t *testing.T) {
	q := linearQuery(1000, 0.5)
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongHost("a"), strongHost("b")}})
	m, err := Run(analyzed(q), c, Placement{0, 0, 1}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerOp) != 3 {
		t.Fatalf("PerOp len = %d, want 3", len(m.PerOp))
	}
	src, fil, snk := m.PerOp[0], m.PerOp[1], m.PerOp[2]
	if src.Host != 0 || snk.Host != 1 {
		t.Error("host assignment not recorded")
	}
	if math.Abs(src.OutRate-1000) > 60 {
		t.Errorf("source out rate = %v, want ~1000", src.OutRate)
	}
	if math.Abs(fil.OutRate-500) > 30 {
		t.Errorf("filter out rate = %v, want ~500", fil.OutRate)
	}
	if fil.CPUUtil <= 0 || fil.CPUUtil > 1 {
		t.Errorf("filter CPU util = %v, want (0,1]", fil.CPUUtil)
	}
	if fil.NetOutMbps <= 0 {
		t.Errorf("filter -> sink crosses hosts; NetOutMbps = %v, want > 0", fil.NetOutMbps)
	}
	if src.NetOutMbps != 0 {
		t.Errorf("source -> filter co-located; NetOutMbps = %v, want 0", src.NetOutMbps)
	}
}

func TestGCSlowdownMonotone(t *testing.T) {
	prev := gcSlowdown(0)
	for p := 0.0; p <= 1.2; p += 0.05 {
		cur := gcSlowdown(p)
		if cur < prev {
			t.Fatalf("gcSlowdown not monotone at %v: %v < %v", p, cur, prev)
		}
		prev = cur
	}
	if gcSlowdown(0.5) != 1 {
		t.Error("no slowdown expected below onset")
	}
	if gcSlowdown(1.0) != gcMaxSlowdown {
		t.Errorf("slowdown at pressure 1.0 = %v, want %v", gcSlowdown(1.0), gcMaxSlowdown)
	}
}

func TestPerTupleCostProperties(t *testing.T) {
	q := linearQuery(1000, 0.5)
	r, _ := q.Analyze()
	base := perTupleCostUS(q, &r.Rates, 1)
	// String predicates cost more than int predicates.
	q.Ops[1].LiteralType = stream.TypeString
	q.Ops[1].FilterFn = stream.FilterStartsWith
	costly := perTupleCostUS(q, &r.Rates, 1)
	if costly <= base {
		t.Errorf("string startswith filter cost %v should exceed int compare %v", costly, base)
	}
	for i := range q.Ops {
		if c := perTupleCostUS(q, &r.Rates, i); c <= 0 {
			t.Errorf("op %d cost = %v, want positive", i, c)
		}
	}
}

func TestStateBytes(t *testing.T) {
	w := stream.Window{Type: stream.WindowSliding, Policy: stream.WindowCountBased, Size: 640, Slide: 320}
	q := aggQuery(1000, w, 0.5)
	r, _ := q.Analyze()
	if sb := stateBytes(q, &r.Rates, 0); sb != 0 {
		t.Errorf("source state = %v, want 0", sb)
	}
	agg := stateBytes(q, &r.Rates, 1)
	if agg <= 0 {
		t.Errorf("windowed aggregate state = %v, want positive", agg)
	}
	// Doubling the window size should grow state.
	q2 := aggQuery(1000, stream.Window{Type: stream.WindowSliding, Policy: stream.WindowCountBased, Size: 1280, Slide: 320}, 0.5)
	r2, _ := q2.Analyze()
	if agg2 := stateBytes(q2, &r2.Rates, 1); agg2 <= agg {
		t.Errorf("bigger window state %v should exceed %v", agg2, agg)
	}
}

func TestHigherEventRateRaisesThroughputUntilSaturation(t *testing.T) {
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "m", CPU: 200, RAMMB: 8000, NetLatencyMS: 1, NetBandwidthMbps: 1600},
	}})
	var last float64
	for _, rate := range []float64{100, 400, 1600, 6400} {
		m, err := Run(analyzed(linearQuery(rate, 0.5)), c, Placement{0, 0, 0}, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if m.ThroughputTPS+1 < last {
			t.Errorf("throughput decreased from %v to %v at rate %v", last, m.ThroughputTPS, rate)
		}
		last = m.ThroughputTPS
	}
}
