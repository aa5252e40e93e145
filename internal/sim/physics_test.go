package sim

import (
	"math"
	"testing"
	"testing/quick"

	"costream/internal/hardware"
	"costream/internal/stream"
)

// midHost returns a host with configurable RAM for memory-pressure tests.
func midHost(id string, ramMB float64) *hardware.Host {
	return &hardware.Host{ID: id, CPU: 400, RAMMB: ramMB, NetLatencyMS: 5, NetBandwidthMbps: 1600}
}

func TestGCPressureInflatesLatency(t *testing.T) {
	// Same query; host RAM chosen so that pressure lands between GC
	// onset and crash on the small host, and well below onset on the
	// big one. Window state ~ 2000 ev/s * 8 s * bytes.
	w := stream.Window{Type: stream.WindowSliding, Policy: stream.WindowTimeBased, Size: 8, Slide: 4}
	b := stream.NewBuilder()
	s := b.AddSource(2000, []stream.DataType{stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString})
	a := b.AddAggregate(stream.AggMean, stream.TypeDouble, stream.TypeString, true, w, 0.3)
	k := b.AddSink()
	b.Chain(s, a, k)
	q := b.MustBuild()

	cfg := testConfig()
	small, err := Run(analyzed(q), checked(&hardware.Cluster{Hosts: []*hardware.Host{midHost("s", 1000)}}), Placement{0, 0, 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(analyzed(q), checked(&hardware.Cluster{Hosts: []*hardware.Host{midHost("b", 32000)}}), Placement{0, 0, 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if small.Crashed {
		t.Skipf("small host crashed (pressure %v); wanted GC regime", small.HostMemPressure)
	}
	if small.HostMemPressure[0] <= big.HostMemPressure[0] {
		t.Fatalf("pressure small=%v big=%v", small.HostMemPressure, big.HostMemPressure)
	}
	if small.HostMemPressure[0] > gcOnsetPressure && small.ProcLatencyMS <= big.ProcLatencyMS {
		t.Errorf("GC pressure %v should inflate latency: small=%v big=%v",
			small.HostMemPressure[0], small.ProcLatencyMS, big.ProcLatencyMS)
	}
}

func TestBackpressureGrowsBrokerWait(t *testing.T) {
	// Increasing overload must increase E2E latency via broker backlog.
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "w", CPU: 100, RAMMB: 8000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}})
	cfg := testConfig()
	var prevWait float64
	for i, rate := range []float64{6400, 12800, 25600} {
		m, err := Run(analyzed(linearQuery(rate, 1.0)), c, Placement{0, 0, 0}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wait := m.E2ELatencyMS - m.ProcLatencyMS
		if i > 0 && wait+1 < prevWait {
			t.Errorf("broker wait should grow with overload: %v then %v at rate %v", prevWait, wait, rate)
		}
		prevWait = wait
	}
}

func TestSinkTupleAccounting(t *testing.T) {
	cfg := testConfig()
	q := linearQuery(1000, 0.5)
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongHost("a")}})
	m, err := Run(analyzed(q), c, Placement{0, 0, 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantTuples := m.ThroughputTPS * cfg.DurationS
	if math.Abs(m.SinkTuples-wantTuples) > 1e-6*wantTuples {
		t.Errorf("SinkTuples %v inconsistent with throughput %v x duration %v",
			m.SinkTuples, m.ThroughputTPS, cfg.DurationS)
	}
}

func TestCrashMetricsShape(t *testing.T) {
	// Force a crash via an enormous join window on a small host.
	b := stream.NewBuilder()
	s1 := b.AddSource(2000, []stream.DataType{stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString})
	s2 := b.AddSource(2000, []stream.DataType{stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString, stream.TypeString})
	j := b.AddJoin(stream.TypeInt, stream.Window{Type: stream.WindowSliding, Policy: stream.WindowTimeBased, Size: 16, Slide: 8}, 1e-4)
	k := b.AddSink()
	b.Connect(s1, j).Connect(s2, j).Connect(j, k)
	q := b.MustBuild()
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{midHost("tiny", 1000)}})
	m, err := Run(analyzed(q), c, Placement{0, 0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Crashed {
		t.Skipf("no crash (pressure %v)", m.HostMemPressure)
	}
	if m.Success {
		t.Error("crashed run cannot be successful")
	}
	if m.ThroughputTPS != 0 {
		t.Error("crashed run must have zero throughput")
	}
	if m.BackpressureRate <= 0 {
		t.Error("crashed run should report backpressure (pipeline stops consuming)")
	}
	if len(m.PerOp) != len(q.Ops) {
		t.Error("crashed run must still report per-op host assignment")
	}
}

func TestLatencyIncludesNetworkPropagation(t *testing.T) {
	// Three hosts in a chain; total latency must include at least the sum
	// of the traversed outgoing latencies.
	q := linearQuery(200, 0.5)
	c := &hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "a", CPU: 400, RAMMB: 8000, NetLatencyMS: 40, NetBandwidthMbps: 1600},
		{ID: "b", CPU: 400, RAMMB: 8000, NetLatencyMS: 20, NetBandwidthMbps: 1600},
		{ID: "c", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}}
	m, err := Run(analyzed(q), checked(c), Placement{0, 1, 2}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.ProcLatencyMS < 60 {
		t.Errorf("Lp=%v must include 40+20 ms of propagation", m.ProcLatencyMS)
	}
}

func TestThroughputNeverExceedsLogicalRate(t *testing.T) {
	f := func(rateIdx, selPct uint8) bool {
		rates := []float64{100, 400, 1600, 6400}
		rate := rates[int(rateIdx)%len(rates)]
		sel := float64(selPct%100+1) / 100
		a := analyzed(linearQuery(rate, sel))
		c := checked(&hardware.Cluster{Hosts: []*hardware.Host{strongHost("x")}})
		m, err := Run(a, c, Placement{0, 0, 0}, testConfig())
		if err != nil {
			return false
		}
		return m.ThroughputTPS <= rate*sel*1.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWaterFillingConservesCapacity(t *testing.T) {
	// Co-located ops' CPU utilization must sum to <= 1 (of host cores).
	b := stream.NewBuilder()
	s1 := b.AddSource(6400, []stream.DataType{stream.TypeInt, stream.TypeInt})
	s2 := b.AddSource(6400, []stream.DataType{stream.TypeInt, stream.TypeInt})
	j := b.AddJoin(stream.TypeInt, stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowCountBased, Size: 40, Slide: 40}, 0.001)
	k := b.AddSink()
	b.Connect(s1, j).Connect(s2, j).Connect(j, k)
	a := analyzed(b.MustBuild())
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "one", CPU: 100, RAMMB: 8000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}})
	m, err := Run(a, c, Placement{0, 0, 0, 0}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, op := range m.PerOp {
		total += op.CPUUtil
	}
	if total > 1.02 {
		t.Errorf("co-located CPU utilization sums to %v of host capacity", total)
	}
	if total < 0.9 {
		t.Errorf("overloaded host should be ~fully utilized, got %v", total)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DurationS <= 0 || cfg.WarmupS < 0 || cfg.StepS <= 0 {
		t.Fatalf("bad default config: %+v", cfg)
	}
	if cfg.StepS > cfg.DurationS {
		t.Fatal("step exceeds duration")
	}
}

func TestMetricsString(t *testing.T) {
	m := &Metrics{ThroughputTPS: 1, ProcLatencyMS: 2, E2ELatencyMS: 3, Success: true}
	if m.String() == "" {
		t.Error("empty Metrics string")
	}
}

func TestFilterFnCostOrdering(t *testing.T) {
	if filterFnCostFactor(stream.FilterStartsWith) <= filterFnCostFactor(stream.FilterLT) {
		t.Error("prefix matching must cost more than numeric compare")
	}
	if dataTypeCostFactor(stream.TypeString) <= dataTypeCostFactor(stream.TypeInt) {
		t.Error("string processing must cost more than int processing")
	}
}

func TestGCPauseMonotone(t *testing.T) {
	prev := gcPauseMS(0)
	for p := 0.0; p <= 1.3; p += 0.05 {
		cur := gcPauseMS(p)
		if cur < prev {
			t.Fatalf("gcPauseMS not monotone at %v", p)
		}
		prev = cur
	}
	if gcPauseMS(0.5) != 0 {
		t.Error("no pause expected below onset")
	}
}

func TestPlacementValidate(t *testing.T) {
	q := linearQuery(100, 0.5)
	c := &hardware.Cluster{Hosts: []*hardware.Host{strongHost("a")}}
	if err := (Placement{0, 0, 0}).Validate(q, c); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
	if err := (Placement{0, 0}).Validate(q, c); err == nil {
		t.Error("short placement accepted")
	}
	if err := (Placement{0, 0, -1}).Validate(q, c); err == nil {
		t.Error("negative host accepted")
	}
}
