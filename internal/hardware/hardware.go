// Package hardware models the heterogeneous edge-cloud resource landscape
// of the paper: hosts described by the four transferable hardware features
// (CPU, RAM, outgoing network latency, outgoing network bandwidth), clusters
// of such hosts, the capability bins used by the placement heuristic
// (Figure 5), and generators over the training/evaluation feature grids
// (Tables II, IV, V).
//
// The paper realizes heterogeneity with Linux cgroups and tc-netem on
// CloudLab machines; those mechanisms only exist to set these four features,
// which this package represents directly.
package hardware

import (
	"fmt"
	"math"
	"math/rand"
)

// Host is one compute node of the landscape, described exactly by the
// hardware-related transferable features of Table I.
type Host struct {
	ID string
	// CPU is the available compute resource in percent of a reference
	// core: 200 means two reference cores (or one at double speed).
	CPU float64
	// RAMMB is the available memory in megabytes.
	RAMMB float64
	// NetLatencyMS is the outgoing network latency of the host in
	// milliseconds.
	NetLatencyMS float64
	// NetBandwidthMbps is the outgoing network bandwidth in Mbit/s.
	NetBandwidthMbps float64
}

// Cores returns the host's compute capacity in reference cores.
func (h *Host) Cores() float64 { return h.CPU / 100 }

// RAMBytes returns the host memory in bytes.
func (h *Host) RAMBytes() float64 { return h.RAMMB * 1024 * 1024 }

// validate refuses a non-finite or non-positive feature (latency may be 0).
func (h *Host) validate() error {
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

// CapabilityScore is a scalar summary of host strength used to classify
// hosts into bins. It mixes compute, memory and network strength on log
// scales so that no single dimension dominates.
func (h *Host) CapabilityScore() float64 {
	// Normalize against the training grid midpoints: cpu 400%, 8 GB RAM,
	// 800 Mbit/s, 20 ms. Latency counts inversely.
	c := h.CPU / 400
	r := h.RAMMB / 8000
	b := h.NetBandwidthMbps / 800
	l := 20 / maxf(h.NetLatencyMS, 0.5)
	return 0.4*c + 0.3*r + 0.2*b + 0.1*l
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Bin is a capability class for the placement heuristic's "increasing
// computing capability" rule: data may only flow from weaker to equal or
// stronger bins (edge -> fog -> cloud).
type Bin int

// Capability bins.
const (
	BinEdge Bin = iota
	BinFog
	BinCloud
)

func (b Bin) String() string {
	switch b {
	case BinEdge:
		return "edge"
	case BinFog:
		return "fog"
	case BinCloud:
		return "cloud"
	default:
		return fmt.Sprintf("Bin(%d)", int(b))
	}
}

// Classify maps a host to its capability bin. The thresholds intersect in
// feature range, emulating the paper's "bins intersected in their feature
// range" realistic transitions.
func Classify(h *Host) Bin { return binOf(h.CapabilityScore()) }

// binOf maps a capability score to its bin.
func binOf(s float64) Bin {
	switch {
	case s < 0.6:
		return BinEdge
	case s < 1.3:
		return BinFog
	default:
		return BinCloud
	}
}

// Cluster is a set of hosts available for placement.
type Cluster struct {
	Hosts []*Host
}

// NumHosts returns the number of hosts.
func (c *Cluster) NumHosts() int { return len(c.Hosts) }

// Checked is a cluster that passed Check, with each host's capability
// score computed once. The simulator, the placement search and the
// control plane take a cluster only in this form, so none of them checks
// or classifies a host again. It shares the hosts of the cluster it was
// checked from, which must not change afterwards.
type Checked struct {
	c      *Cluster
	scores []float64
}

// Check checks the whole cluster: at least one host, none of them nil,
// each one with finite features, positive but for a latency of 0, and no
// host ID twice. It is made once, where a cluster enters the system:
// request decode, fleet views, dataset builds, the experiments, trace
// evaluation and the public facade. The caller gives the cluster up to
// the Checked it returns.
func (c *Cluster) Check() (Checked, error) {
	if c == nil || len(c.Hosts) == 0 {
		return Checked{}, fmt.Errorf("invalid cluster: empty cluster")
	}
	seen := make(map[string]bool, len(c.Hosts))
	scores := make([]float64, len(c.Hosts))
	for i, h := range c.Hosts {
		if h == nil {
			return Checked{}, fmt.Errorf("invalid cluster: host %d is null", i)
		}
		if err := h.validate(); err != nil {
			return Checked{}, fmt.Errorf("invalid cluster: %w", err)
		}
		if seen[h.ID] {
			return Checked{}, fmt.Errorf("invalid cluster: duplicate host id %q", h.ID)
		}
		seen[h.ID] = true
		scores[i] = h.CapabilityScore()
	}
	return Checked{c: c, scores: scores}, nil
}

// Cluster returns the checked cluster.
func (k Checked) Cluster() *Cluster { return k.c }

// Score returns host h's CapabilityScore.
func (k Checked) Score(h int) float64 { return k.scores[h] }

// Bin returns host h's capability bin, as Classify would.
func (k Checked) Bin(h int) Bin { return binOf(k.scores[h]) }

// Clone returns a deep copy of the cluster.
func (c *Cluster) Clone() *Cluster {
	hosts := make([]*Host, len(c.Hosts))
	for i, h := range c.Hosts {
		hc := *h
		hosts[i] = &hc
	}
	return &Cluster{Hosts: hosts}
}

// LinkLatencyMS returns the network latency for shipping data from host
// src to host dst. Co-located operators communicate in-process at zero
// network latency; remote hops pay the sender's outgoing latency, matching
// the paper's "outgoing latency of the host" feature.
func (c *Cluster) LinkLatencyMS(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return c.Hosts[src].NetLatencyMS
}

// LinkBandwidthMbps returns the bandwidth of the path from src to dst:
// infinite for co-location, otherwise the minimum of the sender's outgoing
// and the receiver's incoming (modeled as its outgoing) capacity.
func (c *Cluster) LinkBandwidthMbps(src, dst int) float64 {
	if src == dst {
		return 0 // caller must treat 0 as "no network constraint"
	}
	b := c.Hosts[src].NetBandwidthMbps
	if r := c.Hosts[dst].NetBandwidthMbps; r < b {
		b = r
	}
	return b
}

// Grid holds the value grids hardware features are sampled from. The zero
// value is unusable; use TrainingGrid or a custom grid.
type Grid struct {
	CPU       []float64
	RAMMB     []float64
	Bandwidth []float64
	LatencyMS []float64
}

// Validate reports an error naming the first unusable grid dimension: a
// dimension with no values, or a value a Host would reject (non-finite,
// non-positive cpu/ram/bandwidth, negative latency). Scenario files that
// spell out custom host-template grids are checked with this before any
// sampling, so every host sampled from a valid grid is valid.
func (g Grid) Validate() error {
	dims := []struct {
		name      string
		vals      []float64
		allowZero bool
	}{
		{"cpu", g.CPU, false},
		{"ram_mb", g.RAMMB, false},
		{"bandwidth_mbps", g.Bandwidth, false},
		{"latency_ms", g.LatencyMS, true},
	}
	for _, d := range dims {
		if len(d.vals) == 0 {
			return fmt.Errorf("hardware: grid dimension %s is empty", d.name)
		}
		for _, v := range d.vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (v == 0 && !d.allowZero) {
				return fmt.Errorf("hardware: grid dimension %s holds invalid value %v", d.name, v)
			}
		}
	}
	return nil
}

// TrainingGrid returns the training data ranges of Table II.
func TrainingGrid() Grid {
	return Grid{
		CPU:       []float64{50, 100, 200, 300, 400, 500, 600, 700, 800},
		RAMMB:     []float64{1000, 2000, 4000, 8000, 16000, 24000, 32000},
		Bandwidth: []float64{25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 10000},
		LatencyMS: []float64{1, 2, 5, 10, 20, 40, 80, 160},
	}
}

// InterpolationGrid returns the unseen in-range evaluation grid of
// Table IV-A (Exp 3).
func InterpolationGrid() Grid {
	return Grid{
		CPU:       []float64{75, 150, 250, 350, 450, 550, 650, 750},
		RAMMB:     []float64{1500, 3000, 6000, 12000, 20000, 28000},
		Bandwidth: []float64{35, 75, 150, 250, 550, 1200, 1900, 4800, 8000},
		LatencyMS: []float64{3, 7, 15, 30, 60, 120},
	}
}

// Sample draws one host with features drawn independently and uniformly
// from the grid values.
func (g Grid) Sample(rng *rand.Rand, id string) *Host {
	pick := func(vals []float64) float64 { return vals[rng.Intn(len(vals))] }
	return &Host{
		ID:               id,
		CPU:              pick(g.CPU),
		RAMMB:            pick(g.RAMMB),
		NetLatencyMS:     pick(g.LatencyMS),
		NetBandwidthMbps: pick(g.Bandwidth),
	}
}

// SampleCluster draws n hosts from the grid. To guarantee the heuristic
// placement rules are satisfiable it re-draws until the cluster contains at
// least one host of bin >= fog (so data can flow "upward"), falling back to
// boosting the last host after a bounded number of attempts.
func (g Grid) SampleCluster(rng *rand.Rand, n int) *Cluster {
	const attempts = 32
	for a := 0; a < attempts; a++ {
		c := &Cluster{}
		for i := 0; i < n; i++ {
			c.Hosts = append(c.Hosts, g.Sample(rng, fmt.Sprintf("host-%d", i)))
		}
		for _, h := range c.Hosts {
			if Classify(h) >= BinFog {
				return c
			}
		}
	}
	// Fallback: force a strong final host from the top of the grids.
	c := &Cluster{}
	for i := 0; i < n-1; i++ {
		c.Hosts = append(c.Hosts, g.Sample(rng, fmt.Sprintf("host-%d", i)))
	}
	c.Hosts = append(c.Hosts, &Host{
		ID:               fmt.Sprintf("host-%d", n-1),
		CPU:              g.CPU[len(g.CPU)-1],
		RAMMB:            g.RAMMB[len(g.RAMMB)-1],
		NetLatencyMS:     g.LatencyMS[0],
		NetBandwidthMbps: g.Bandwidth[len(g.Bandwidth)-1],
	})
	return c
}

// MeanFeatures returns the mean CPU, RAM, bandwidth and latency across the
// cluster's hosts, used by the evaluation's hardware bucketing (Figure 7).
func (c *Cluster) MeanFeatures() (cpu, ramMB, bwMbps, latMS float64) {
	n := float64(len(c.Hosts))
	if n == 0 {
		return 0, 0, 0, 0
	}
	for _, h := range c.Hosts {
		cpu += h.CPU
		ramMB += h.RAMMB
		bwMbps += h.NetBandwidthMbps
		latMS += h.NetLatencyMS
	}
	return cpu / n, ramMB / n, bwMbps / n, latMS / n
}
