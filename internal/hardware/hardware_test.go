package hardware

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHostValidate(t *testing.T) {
	good := Host{ID: "h", CPU: 200, RAMMB: 4000, NetLatencyMS: 5, NetBandwidthMbps: 100}
	if err := good.validate(); err != nil {
		t.Fatalf("valid host rejected: %v", err)
	}
	bad := []Host{
		{ID: "a", CPU: 0, RAMMB: 4000, NetLatencyMS: 5, NetBandwidthMbps: 100},
		{ID: "b", CPU: 200, RAMMB: 0, NetLatencyMS: 5, NetBandwidthMbps: 100},
		{ID: "c", CPU: 200, RAMMB: 4000, NetLatencyMS: -1, NetBandwidthMbps: 100},
		{ID: "d", CPU: 200, RAMMB: 4000, NetLatencyMS: 5, NetBandwidthMbps: 0},
	}
	for _, h := range bad {
		if err := h.validate(); err == nil {
			t.Errorf("host %s accepted, want error", h.ID)
		}
	}
}

// TestValidateRefusesNullAndNonFinite: a null host is refused naming its
// index, and NaN or ±Inf in any feature naming the feature, where NaN
// would slip past every comparison and +Inf past the positivity checks.
func TestValidateRefusesNullAndNonFinite(t *testing.T) {
	good := Host{ID: "h", CPU: 200, RAMMB: 4000, NetLatencyMS: 5, NetBandwidthMbps: 100}
	const wantNull = "invalid cluster: host 1 is null"
	if _, err := (&Cluster{Hosts: []*Host{&good, nil}}).Check(); err == nil || err.Error() != wantNull {
		t.Errorf("null host: err = %v, want %q", err, wantNull)
	}
	features := []struct {
		name  string
		field func(*Host) *float64
	}{
		{"cpu", func(h *Host) *float64 { return &h.CPU }},
		{"ram", func(h *Host) *float64 { return &h.RAMMB }},
		{"latency", func(h *Host) *float64 { return &h.NetLatencyMS }},
		{"bandwidth", func(h *Host) *float64 { return &h.NetBandwidthMbps }},
	}
	for _, f := range features {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			h := good
			*f.field(&h) = v
			want := fmt.Sprintf("invalid cluster: host h: %s must be finite", f.name)
			if _, err := (&Cluster{Hosts: []*Host{&h}}).Check(); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s = %v: err = %v, want %q…", f.name, v, err, want)
			}
		}
	}
}

func TestClusterValidateDuplicateIDs(t *testing.T) {
	c := &Cluster{Hosts: []*Host{
		{ID: "x", CPU: 100, RAMMB: 1000, NetLatencyMS: 1, NetBandwidthMbps: 25},
		{ID: "x", CPU: 200, RAMMB: 2000, NetLatencyMS: 1, NetBandwidthMbps: 25},
	}}
	if _, err := c.Check(); err == nil {
		t.Error("duplicate ids accepted")
	}
	if _, err := (&Cluster{}).Check(); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestClassifyOrdering(t *testing.T) {
	weak := &Host{ID: "w", CPU: 50, RAMMB: 1000, NetLatencyMS: 160, NetBandwidthMbps: 25}
	mid := &Host{ID: "m", CPU: 400, RAMMB: 8000, NetLatencyMS: 20, NetBandwidthMbps: 800}
	strong := &Host{ID: "s", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000}
	if Classify(weak) != BinEdge {
		t.Errorf("weak host bin = %v, want edge", Classify(weak))
	}
	if Classify(mid) != BinFog {
		t.Errorf("mid host bin = %v, want fog (score %v)", Classify(mid), mid.CapabilityScore())
	}
	if Classify(strong) != BinCloud {
		t.Errorf("strong host bin = %v, want cloud", Classify(strong))
	}
	if !(weak.CapabilityScore() < mid.CapabilityScore() && mid.CapabilityScore() < strong.CapabilityScore()) {
		t.Error("capability score not monotone in strength")
	}
}

func TestCapabilityScoreMonotoneInCPU(t *testing.T) {
	f := func(cpuStep uint8) bool {
		c1 := 50 + float64(cpuStep%16)*50
		c2 := c1 + 50
		h1 := &Host{CPU: c1, RAMMB: 8000, NetLatencyMS: 20, NetBandwidthMbps: 800}
		h2 := &Host{CPU: c2, RAMMB: 8000, NetLatencyMS: 20, NetBandwidthMbps: 800}
		return h2.CapabilityScore() > h1.CapabilityScore()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkModel(t *testing.T) {
	c := &Cluster{Hosts: []*Host{
		{ID: "a", CPU: 100, RAMMB: 1000, NetLatencyMS: 40, NetBandwidthMbps: 50},
		{ID: "b", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}}
	if got := c.LinkLatencyMS(0, 0); got != 0 {
		t.Errorf("co-located latency = %v, want 0", got)
	}
	if got := c.LinkLatencyMS(0, 1); got != 40 {
		t.Errorf("edge->cloud latency = %v, want 40 (sender's outgoing)", got)
	}
	if got := c.LinkLatencyMS(1, 0); got != 1 {
		t.Errorf("cloud->edge latency = %v, want 1", got)
	}
	if got := c.LinkBandwidthMbps(0, 1); got != 50 {
		t.Errorf("bandwidth = %v, want min(50,10000)=50", got)
	}
	if got := c.LinkBandwidthMbps(1, 1); got != 0 {
		t.Errorf("co-located bandwidth sentinel = %v, want 0", got)
	}
}

func TestGridsWithinPaperRanges(t *testing.T) {
	tg := TrainingGrid()
	if len(tg.CPU) != 9 || tg.CPU[0] != 50 || tg.CPU[8] != 800 {
		t.Errorf("training CPU grid mismatch: %v", tg.CPU)
	}
	if len(tg.RAMMB) != 7 || tg.RAMMB[6] != 32000 {
		t.Errorf("training RAM grid mismatch: %v", tg.RAMMB)
	}
	if len(tg.Bandwidth) != 10 || tg.Bandwidth[9] != 10000 {
		t.Errorf("training bandwidth grid mismatch: %v", tg.Bandwidth)
	}
	if len(tg.LatencyMS) != 8 || tg.LatencyMS[7] != 160 {
		t.Errorf("training latency grid mismatch: %v", tg.LatencyMS)
	}
	ig := InterpolationGrid()
	for _, v := range ig.CPU {
		if v < tg.CPU[0] || v > tg.CPU[len(tg.CPU)-1] {
			t.Errorf("interpolation CPU %v outside training range", v)
		}
		for _, tv := range tg.CPU {
			if v == tv {
				t.Errorf("interpolation CPU %v collides with training grid", v)
			}
		}
	}
}

func TestSampleClusterSatisfiesHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := TrainingGrid()
	for i := 0; i < 50; i++ {
		c := g.SampleCluster(rng, 4)
		k, err := c.Check()
		if err != nil {
			t.Fatalf("sampled cluster invalid: %v", err)
		}
		ok := false
		for h := range c.Hosts {
			if k.Bin(h) >= BinFog {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("cluster %d has no fog/cloud host", i)
		}
	}
}

func TestSampleDrawsFromGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := TrainingGrid()
	in := func(v float64, vals []float64) bool {
		for _, x := range vals {
			if x == v {
				return true
			}
		}
		return false
	}
	for i := 0; i < 100; i++ {
		h := g.Sample(rng, "h")
		if !in(h.CPU, g.CPU) || !in(h.RAMMB, g.RAMMB) || !in(h.NetBandwidthMbps, g.Bandwidth) || !in(h.NetLatencyMS, g.LatencyMS) {
			t.Fatalf("sampled host off-grid: %+v", h)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := &Cluster{Hosts: []*Host{{ID: "a", CPU: 100, RAMMB: 1000, NetLatencyMS: 1, NetBandwidthMbps: 25}}}
	d := c.Clone()
	d.Hosts[0].CPU = 999
	if c.Hosts[0].CPU == 999 {
		t.Error("Clone shares host memory")
	}
}

func TestMeanFeatures(t *testing.T) {
	c := &Cluster{Hosts: []*Host{
		{ID: "a", CPU: 100, RAMMB: 2000, NetLatencyMS: 10, NetBandwidthMbps: 100},
		{ID: "b", CPU: 300, RAMMB: 6000, NetLatencyMS: 30, NetBandwidthMbps: 300},
	}}
	cpu, ram, bw, lat := c.MeanFeatures()
	if cpu != 200 || ram != 4000 || bw != 200 || lat != 20 {
		t.Errorf("MeanFeatures = %v %v %v %v", cpu, ram, bw, lat)
	}
}

func TestBinString(t *testing.T) {
	if BinEdge.String() != "edge" || BinFog.String() != "fog" || BinCloud.String() != "cloud" {
		t.Error("bin strings wrong")
	}
}
