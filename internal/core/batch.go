package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/obs"
	"costream/internal/sim"
	"costream/internal/stream"
)

// inferMetrics times the batched inference path in the default registry:
// the placement-invariant featurization setup per scoring session and the
// per-tile packed scoring.
type inferMetrics struct {
	featurizeSeconds *obs.Histogram
	tileSeconds      *obs.Histogram
	tileSize         *obs.Histogram
	candidates       *obs.Counter
	fusedTiles       *obs.Counter
	fusedCandidates  *obs.Counter
	// tileRows counts, per message-passing phase (gnn.PackedGraphs.Rows
	// order), the kernel rows the scored tiles' candidates requested and
	// the distinct rows computed for them; computed/requested is the share
	// of a tile's work its near-duplicate candidates did not save.
	tileRows [3]struct{ requested, computed *obs.Counter }
	// ensembleCands counts, per metric (indexed by Metric), the candidates
	// its ensemble scored. A search round asks for the costs
	// its objective reads, so after a search the read metrics count the
	// budget and the others one, the winner: the ratio is the share of
	// ensemble passes the read set saved.
	ensembleCands [len(metricNames)]*obs.Counter
}

var inferMet = sync.OnceValue(func() *inferMetrics {
	r := obs.Default()
	m := &inferMetrics{
		featurizeSeconds: r.Histogram("costream_inference_featurize_seconds",
			"placement-invariant featurization setup per scoring session", 1e-9),
		tileSeconds: r.Histogram("costream_inference_tile_seconds",
			"full scoring of one candidate tile across all cost-metric ensembles", 1e-9),
		tileSize: r.Histogram("costream_inference_tile_size",
			"candidates per scored tile (fused round scoring)", 1),
		candidates: r.Counter("costream_inference_candidates_total",
			"placement candidates scored through the batched inference path"),
		fusedTiles: r.Counter("costream_inference_fused_tiles_total",
			"candidate tiles scored through the packed cross-candidate kernels"),
		fusedCandidates: r.Counter("costream_inference_fused_candidates_total",
			"placement candidates scored through the packed cross-candidate kernels"),
	}
	for i, phase := range []string{"host", "placed", "flow"} {
		rows := func(outcome string) *obs.Counter {
			return r.Counter("costream_inference_tile_rows_total",
				"kernel rows of the packed tile pass per ensemble, by message-passing phase: requested by the tile's candidates, and computed after sharing equal rows",
				"phase", phase, "outcome", outcome)
		}
		m.tileRows[i].requested, m.tileRows[i].computed = rows("requested"), rows("computed")
	}
	for i, metric := range metricNames {
		m.ensembleCands[i] = r.Counter("costream_inference_ensemble_candidates_total",
			"placement candidates scored by each cost metric's ensemble: a search scores every candidate with the metrics its objective reads and only the chosen one with the rest",
			"metric", metric)
	}
	return m
})

// BatchFeaturizer amortizes graph construction over many placement
// candidates for a fixed (query, cluster) pair: the operator nodes, their
// feature vectors and the data-flow edges are placement-invariant and
// computed once, and each host's feature vector the first time a
// candidate uses that host (a single prediction on a 220-host fleet
// touches a handful). Building the graph for one more candidate then
// only assembles placement edges and host node references — no
// re-validation of the query and no feature arithmetic for a host seen
// before. Safe for concurrent use.
type BatchFeaturizer struct {
	mode FeatureMode
	q    *stream.Query
	c    *hardware.Cluster
	base *gnn.Graph // operator nodes + flow edges (shared, read-only)
	plan *gnn.Plan  // flow structure shared by every candidate graph
	// hostFeat caches per-host feature vectors (shared, read-only). Every
	// graph of the session references the same array for a host — the one
	// published first — because gnn.PackGraphs tells hosts apart by their
	// backing array: a second array for one host would cost a tile its
	// shared rows, and how many would depend on scheduling.
	hostFeat []atomic.Pointer[[hostDim]float64]
}

// Plan returns the message-passing plan shared by all graphs this
// featurizer builds.
func (bf *BatchFeaturizer) Plan() *gnn.Plan { return bf.plan }

// NewBatch prepares a BatchFeaturizer for the query and cluster. The
// graphs it builds share node feature slices; they must be treated as
// read-only (neither the tape nor the packed kernel mutates them).
func (f *Featurizer) NewBatch(q *stream.Query, c *hardware.Cluster) (*BatchFeaturizer, error) {
	base, err := f.opGraph(q)
	if err != nil {
		return nil, err
	}
	plan, err := gnn.NewPlan(base)
	if err != nil {
		return nil, err
	}
	bf := &BatchFeaturizer{mode: f.Mode, q: q, c: c, base: base, plan: plan}
	if f.Mode == FeatQueryOnly {
		return bf, nil
	}
	if c == nil {
		return nil, fmt.Errorf("core: cluster required for %v featurization", f.Mode)
	}
	bf.hostFeat = make([]atomic.Pointer[[hostDim]float64], len(c.Hosts))
	return bf, nil
}

// hostFeatures returns host h's feature vector, featurizing it on first
// use. Of several concurrent first uses one vector is published and all
// callers return it.
func (bf *BatchFeaturizer) hostFeatures(h int) []float64 {
	v := bf.hostFeat[h].Load()
	if v == nil {
		f := Featurizer{Mode: bf.mode}
		v = (*[hostDim]float64)(f.hostFeatures(bf.c.Hosts[h]))
		if !bf.hostFeat[h].CompareAndSwap(nil, v) {
			v = bf.hostFeat[h].Load()
		}
	}
	return v[:]
}

// buildGraphInto assembles the joint graph for one placement candidate
// into caller-owned storage, reusing the cached placement-invariant
// parts: the graph's node and placement-edge slices are recycled across
// calls, and the hostSlot scratch array (grown and reset here) maps hosts
// to their nodes, so steady-state candidate assembly allocates nothing.
// For FeatQueryOnly the shell aliases the shared base. The result is
// value-identical to Featurizer.BuildGraph for the same triple — same
// nodes and edge order, feature slices shared across the session — and
// must be treated as read-only.
func (bf *BatchFeaturizer) buildGraphInto(p sim.Placement, g *gnn.Graph, hostSlot *[]int) error {
	if bf.mode == FeatQueryOnly {
		g.Nodes = bf.base.Nodes
		g.FlowEdges = bf.base.FlowEdges
		g.PlaceEdges = nil
		return nil
	}
	if err := p.Validate(bf.q, bf.c); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	nOps := len(bf.base.Nodes)
	if cap(g.Nodes) < nOps+len(p) {
		g.Nodes = make([]gnn.Node, nOps, nOps+len(p))
	} else {
		g.Nodes = g.Nodes[:nOps]
	}
	copy(g.Nodes, bf.base.Nodes)
	g.FlowEdges = bf.base.FlowEdges
	g.PlaceEdges = g.PlaceEdges[:0]
	if cap(*hostSlot) < len(bf.hostFeat) {
		*hostSlot = make([]int, len(bf.hostFeat))
	}
	slots := (*hostSlot)[:len(bf.hostFeat)]
	for i := range slots {
		slots[i] = -1
	}
	for opIdx, h := range p {
		node := slots[h]
		if node < 0 {
			node = len(g.Nodes)
			slots[h] = node
			g.Nodes = append(g.Nodes, gnn.Node{Kind: gnn.KindHost, Feat: bf.hostFeatures(h)})
		}
		g.PlaceEdges = append(g.PlaceEdges, [2]int{opIdx, node})
	}
	return nil
}

// ensembles lists the predictor's per-metric ensembles in paper order,
// skipping untrained slots.
func (pr *Predictor) ensembles() []*Ensemble {
	var out []*Ensemble
	for _, s := range pr.Ensembles() {
		if s.Ensemble != nil {
			out = append(out, s.Ensemble)
		}
	}
	return out
}
