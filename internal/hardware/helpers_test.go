package hardware

import (
	"math/rand"
	"testing"
)

func TestCoresAndRAMBytes(t *testing.T) {
	h := &Host{ID: "x", CPU: 250, RAMMB: 2, NetLatencyMS: 1, NetBandwidthMbps: 10}
	if h.Cores() != 2.5 {
		t.Errorf("Cores = %v, want 2.5", h.Cores())
	}
	if h.RAMBytes() != 2*1024*1024 {
		t.Errorf("RAMBytes = %v", h.RAMBytes())
	}
}

func TestSampleClusterFallbackBoostsLastHost(t *testing.T) {
	// A grid whose every draw is edge-class forces the fallback path: the
	// last host is built from the strongest values the grid can express.
	// (An all-edge cluster is still placeable — the capability rule only
	// forbids *decreasing* bins — so no off-grid host is invented.)
	g := Grid{
		CPU:       []float64{50},
		RAMMB:     []float64{1000},
		Bandwidth: []float64{25},
		LatencyMS: []float64{160},
	}
	rng := rand.New(rand.NewSource(1))
	c := g.SampleCluster(rng, 3)
	if _, err := c.Check(); err != nil {
		t.Fatal(err)
	}
	last := c.Hosts[len(c.Hosts)-1]
	if last.CPU != 50 || last.RAMMB != 1000 || last.NetBandwidthMbps != 25 || last.NetLatencyMS != 160 {
		t.Errorf("fallback host off-grid: %+v", last)
	}
}

func TestNumHosts(t *testing.T) {
	c := &Cluster{Hosts: []*Host{{ID: "a", CPU: 100, RAMMB: 1000, NetLatencyMS: 1, NetBandwidthMbps: 25}}}
	if c.NumHosts() != 1 {
		t.Errorf("NumHosts = %d", c.NumHosts())
	}
}

func TestMeanFeaturesEmpty(t *testing.T) {
	var c Cluster
	cpu, ram, bw, lat := c.MeanFeatures()
	if cpu != 0 || ram != 0 || bw != 0 || lat != 0 {
		t.Error("empty cluster means must be zero")
	}
}
