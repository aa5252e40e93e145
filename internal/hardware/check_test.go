package hardware

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refHostValidate and refValidate are the host and whole-cluster checks
// as they stood before Check, kept verbatim as its oracle.
func refHostValidate(h *Host) error {
	if !(0 < h.CPU && h.CPU < math.Inf(1)) {
		return fmt.Errorf("host %s: cpu must be finite and positive, got %v", h.ID, h.CPU)
	}
	if !(0 < h.RAMMB && h.RAMMB < math.Inf(1)) {
		return fmt.Errorf("host %s: ram must be finite and positive, got %v", h.ID, h.RAMMB)
	}
	if !(0 <= h.NetLatencyMS && h.NetLatencyMS < math.Inf(1)) {
		return fmt.Errorf("host %s: latency must be finite and non-negative, got %v", h.ID, h.NetLatencyMS)
	}
	if !(0 < h.NetBandwidthMbps && h.NetBandwidthMbps < math.Inf(1)) {
		return fmt.Errorf("host %s: bandwidth must be finite and positive, got %v", h.ID, h.NetBandwidthMbps)
	}
	return nil
}

func refValidate(c *Cluster) error {
	if len(c.Hosts) == 0 {
		return fmt.Errorf("empty cluster")
	}
	seen := make(map[string]bool, len(c.Hosts))
	for i, h := range c.Hosts {
		if h == nil {
			return fmt.Errorf("host %d is null", i)
		}
		if err := refHostValidate(h); err != nil {
			return err
		}
		if seen[h.ID] {
			return fmt.Errorf("duplicate host id %q", h.ID)
		}
		seen[h.ID] = true
	}
	return nil
}

// diffCheck holds Check to the reference on c: it refuses exactly what
// the reference refuses, with "invalid cluster: " and the reference's
// text, and returns no cluster then; where it accepts, it holds c, Bin
// is Classify and Score is CapabilityScore in hex. It returns "" on
// agreement and the reference's verdict for the outcome count.
func diffCheck(c *Cluster) (diff, verdict string) {
	k, err := c.Check()
	if ref := refValidate(c); ref != nil {
		want := "invalid cluster: " + ref.Error()
		if err == nil || err.Error() != want {
			return fmt.Sprintf("Check error %v, want %q", err, want), ""
		}
		if k.Cluster() != nil {
			return "Check refused the cluster but returned it", ""
		}
		return "", ref.Error()
	}
	if err != nil {
		return fmt.Sprintf("Check refused a cluster the reference accepts: %v", err), ""
	}
	if k.Cluster() != c {
		return "Check returned another cluster", ""
	}
	for h, host := range c.Hosts {
		if got, want := k.Bin(h), Classify(host); got != want {
			return fmt.Sprintf("host %d: Bin %v, Classify %v", h, got, want), ""
		}
		if got, want := k.Score(h), host.CapabilityScore(); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Sprintf("host %d: Score %x, CapabilityScore %x", h, got, want), ""
		}
	}
	return "", "accepted"
}

// featureValues are the values a fuzzed host feature is drawn from: the
// training grid's ends, the scores' reference points, and every kind of
// value the check refuses.
var featureValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 0.5, 1, 20, 25, 50, 160, 400, 800, 1000, 8000, 10000, 32000, math.MaxFloat64,
}

// fuzzHost decodes one five-byte host: an ID byte (255 is a null host;
// IDs repeat every eight, so duplicates are common) and one featureValues
// index per feature.
func fuzzHost(b []byte) *Host {
	if b[0] == 255 {
		return nil
	}
	v := func(i int) float64 { return featureValues[int(b[i])%len(featureValues)] }
	return &Host{ID: fmt.Sprintf("h%d", b[0]%8), CPU: v(1), RAMMB: v(2), NetLatencyMS: v(3), NetBandwidthMbps: v(4)}
}

// onThreshold returns the two hosts that straddle capability score t
// with the other features drawn from rng: latency is stepped one float at
// a time until the score sits just below t, then just at or above it.
func onThreshold(rng *rand.Rand, t float64) []*Host {
	for {
		h := Host{ID: "t", CPU: 50 + 250*rng.Float64(), RAMMB: 1000 + 7000*rng.Float64(), NetBandwidthMbps: 25 + 500*rng.Float64()}
		rest := 0.4*h.CPU/400 + 0.3*h.RAMMB/8000 + 0.2*h.NetBandwidthMbps/800
		if rest > t-0.05 {
			continue
		}
		h.NetLatencyMS = 2 / (t - rest)
		for h.CapabilityScore() >= t {
			h.NetLatencyMS = math.Nextafter(h.NetLatencyMS, math.Inf(1))
		}
		below := h
		for h.CapabilityScore() < t {
			h.NetLatencyMS = math.Nextafter(h.NetLatencyMS, math.Inf(-1))
		}
		below.ID, h.ID = fmt.Sprintf("below-%v", t), fmt.Sprintf("at-%v", t)
		return []*Host{&below, &h}
	}
}

// TestCheckMatchesReference holds Check to the reference whole-cluster
// check on hand-made invalid clusters (empty, null, duplicate ID, and
// NaN, ±Inf, zero and negative values in each feature), on clusters
// sampled from both grids with one host broken or duplicated, on hosts
// straddling both bin thresholds and on byte-decoded clusters.
func TestCheckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	good := Host{ID: "h", CPU: 200, RAMMB: 4000, NetLatencyMS: 5, NetBandwidthMbps: 100}
	cs := []*Cluster{{}, {Hosts: []*Host{nil}}, {Hosts: []*Host{&good, nil}}, {Hosts: []*Host{&good, &good}}}
	fields := []func(*Host) *float64{
		func(h *Host) *float64 { return &h.CPU },
		func(h *Host) *float64 { return &h.RAMMB },
		func(h *Host) *float64 { return &h.NetLatencyMS },
		func(h *Host) *float64 { return &h.NetBandwidthMbps },
	}
	for _, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
			h := good
			*field(&h) = v
			cs = append(cs, &Cluster{Hosts: []*Host{&h}}, &Cluster{Hosts: []*Host{&good, &h}})
		}
	}
	for _, g := range []Grid{TrainingGrid(), InterpolationGrid()} {
		for k := 0; k < 300; k++ {
			c := g.SampleCluster(rng, 1+rng.Intn(12))
			cs = append(cs, c)
			broken := c.Clone()
			i := rng.Intn(len(broken.Hosts))
			switch k % 4 {
			case 0:
				broken.Hosts[i] = nil
			case 1:
				*fields[rng.Intn(4)](broken.Hosts[i]) = featureValues[rng.Intn(7)]
			case 2:
				broken.Hosts = append(broken.Hosts, broken.Hosts[i])
			case 3:
				broken.Hosts[i].NetLatencyMS = 0
			}
			cs = append(cs, broken)
		}
	}
	for k := 0; k < 100; k++ {
		c := &Cluster{Hosts: append(onThreshold(rng, 0.6), onThreshold(rng, 1.3)...)}
		cs = append(cs, c)
		b := make([]byte, 5*(1+rng.Intn(6)))
		rng.Read(b)
		decoded := &Cluster{}
		for i := 0; i+5 <= len(b); i += 5 {
			decoded.Hosts = append(decoded.Hosts, fuzzHost(b[i:i+5]))
		}
		cs = append(cs, decoded)
	}
	kinds := []string{"accepted", "empty", "null", "duplicate", "cpu", "ram", "latency", "bandwidth"}
	verdicts := map[string]int{}
	for i, c := range cs {
		d, verdict := diffCheck(c)
		if d != "" {
			t.Fatalf("cluster %d: %s", i, d)
		}
		for _, kind := range kinds {
			if strings.Contains(verdict, kind) {
				verdicts[kind]++
				break
			}
		}
	}
	t.Logf("%d clusters, verdicts by kind: %v", len(cs), verdicts)
	for _, kind := range kinds {
		if verdicts[kind] == 0 {
			t.Errorf("no cluster %s: want every verdict", kind)
		}
	}
	if _, err := (*Cluster)(nil).Check(); err == nil || err.Error() != "invalid cluster: empty cluster" {
		t.Errorf("nil cluster: err = %v, want the empty cluster's refusal", err)
	}
	for _, tc := range []struct {
		t    float64
		bins [2]Bin
	}{{0.6, [2]Bin{BinEdge, BinFog}}, {1.3, [2]Bin{BinFog, BinCloud}}} {
		hs := onThreshold(rng, tc.t)
		k, err := (&Cluster{Hosts: hs}).Check()
		if err != nil {
			t.Fatal(err)
		}
		if k.Bin(0) != tc.bins[0] || k.Bin(1) != tc.bins[1] {
			t.Errorf("hosts straddling %v: bins %v, %v, want %v", tc.t, k.Bin(0), k.Bin(1), tc.bins)
		}
	}
}

// FuzzCheck holds Check to the reference on arbitrary clusters: one host
// per five bytes (see fuzzHost), and a trailing partial group adds one
// host with the four raw float arguments.
func FuzzCheck(f *testing.F) {
	f.Add([]byte{}, 1.0, 1.0, 1.0, 1.0)
	f.Add([]byte{0, 12, 16, 11, 14, 1, 13, 19, 10, 17, 9}, 200.0, 4000.0, 5.0, 100.0)
	f.Add([]byte{0, 12, 16, 11, 14, 0, 13, 19, 10, 17}, 1.0, 1.0, 1.0, 1.0)
	f.Add([]byte{255, 0, 0, 0, 0}, 1.0, 1.0, 1.0, 1.0)
	f.Add([]byte{1}, math.NaN(), 1.0, math.Inf(1), -1.0)
	f.Fuzz(func(t *testing.T, hosts []byte, cpu, ram, lat, bw float64) {
		hosts = hosts[:min(len(hosts), 5*16+1)]
		c := &Cluster{}
		for i := 0; i+5 <= len(hosts); i += 5 {
			c.Hosts = append(c.Hosts, fuzzHost(hosts[i:i+5]))
		}
		if len(hosts)%5 != 0 {
			c.Hosts = append(c.Hosts, &Host{ID: "raw", CPU: cpu, RAMMB: ram, NetLatencyMS: lat, NetBandwidthMbps: bw})
		}
		if d, _ := diffCheck(c); d != "" {
			t.Fatalf("%d hosts: %s", len(c.Hosts), d)
		}
	})
}
