package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/obs"
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
	ensembleCands [NumMetrics]*obs.Counter
	// helperPasses counts the ensemble passes that an idle helper
	// goroutine ran beside the scoring caller (par.Crew).
	helperPasses *obs.Counter
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
		helperPasses: r.Counter("costream_inference_helper_passes_total",
			"ensemble passes of a scored tile that an idle helper goroutine ran beside the caller"),
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

// BatchFeaturizer amortizes featurization over many placement candidates
// for a fixed (query, cluster) pair: the operator nodes, their feature
// vectors and the data-flow edges are placement-invariant and computed
// once, and each host's feature vector the first time a candidate uses
// that host (a single prediction on a 220-host fleet touches a handful).
// Packing a tile of candidates then reads the placements alone — no
// re-validation of the query, no graph per candidate and no feature
// arithmetic for a host seen before. Safe for concurrent use.
type BatchFeaturizer struct {
	mode FeatureMode
	c    *hardware.Cluster
	ops  *gnn.Graph // operator nodes + flow edges (shared, read-only)
	plan *gnn.Plan  // flow structure shared by every candidate
	// hostFeat caches per-host feature vectors (shared, read-only).
	hostFeat []atomic.Pointer[[hostDim]float64]
}

// NewBatch prepares a BatchFeaturizer for the analysed query and cluster.
func (f *Featurizer) NewBatch(a *stream.Analysis, c *hardware.Cluster) (*BatchFeaturizer, error) {
	ops, plan, err := f.opGraph(a, 0)
	if err != nil {
		return nil, err
	}
	bf := &BatchFeaturizer{mode: f.Mode, c: c, ops: ops, plan: plan}
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
// use. Concurrent first uses may each featurize the host; they store
// equal vectors, and the packer keys a host's row by its index, not by
// which vector it got.
func (bf *BatchFeaturizer) hostFeatures(h int) []float64 {
	v := bf.hostFeat[h].Load()
	if v == nil {
		f := Featurizer{Mode: bf.mode}
		v = (*[hostDim]float64)(f.hostFeatures(make([]float64, 0, hostDim), bf.c.Hosts[h]))
		bf.hostFeat[h].Store(v)
	}
	return v[:]
}

// pack packs a tile of placements (operator -> host, one per candidate)
// into pg: the tables of the graphs Featurizer.BuildGraph would build for
// them, over the shared operator graph. A placement of the wrong length
// or onto a host outside the cluster is an error; query-only
// featurization reads no placement.
func (bf *BatchFeaturizer) pack(pg *gnn.PackedGraphs, placements [][]int) error {
	if bf.mode == FeatQueryOnly {
		return pg.Pack(bf.ops, bf.plan, 0, nil, placements)
	}
	return pg.Pack(bf.ops, bf.plan, len(bf.hostFeat), bf.hostFeatures, placements)
}

// ensembles lists the predictor's per-metric ensembles in paper order,
// skipping untrained slots.
func (pr *Predictor) ensembles() []*Ensemble {
	var out []*Ensemble
	for _, e := range pr {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}
