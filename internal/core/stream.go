// Streaming training: build the GNN sample sets directly from a
// dataset.Source (the sharded corpus store, or an in-memory corpus) in a
// single pass, featurizing each trace as it streams by and sharing the
// resulting graphs across all metrics and ensemble members. The raw
// traces are released shard by shard — only the featurized graphs (the
// training working set, which every epoch touches anyway) stay resident,
// so training from a sharded corpus never holds all traces in memory.
//
// The sample order reproduces the corpus path exactly: position r of the
// train set is the trace at trainIdx[r] (dataset.SplitIndices order, the
// same order Corpus.Split produces), so TrainPredictorSource returns
// bit-identical weights to TrainPredictor over the equivalent in-memory
// split — test-enforced in stream_test.go.
package core

import (
	"fmt"
	"math"

	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/par"
	"costream/internal/sim"
)

// record is one featurized trace: the joint operator-resource graph, its
// message-passing plan, and the measured metrics the per-metric targets
// are derived from. Graphs are read-only during training and safely
// shared across metrics and concurrently-training ensemble members.
type record struct {
	graph *gnn.Graph
	plan  *gnn.Plan
	met   *sim.Metrics
}

// newRecord analyses one trace's query and featurizes the trace.
func newRecord(feat *Featurizer, tr *dataset.Trace) (record, error) {
	a, err := tr.Query.Analyze()
	if err != nil {
		return record{}, fmt.Errorf("core: %w", err)
	}
	g, plan, err := feat.BuildGraph(a, tr.Cluster, tr.Placement)
	if err != nil {
		return record{}, err
	}
	return record{graph: g, plan: plan, met: tr.Metrics}, nil
}

// featurizeCorpus featurizes every trace of an in-memory corpus on
// par.Each's GOMAXPROCS goroutines (feat is read-only) and returns the
// records in corpus order, or the error of the lowest failing trace.
func featurizeCorpus(feat *Featurizer, c *dataset.Corpus) ([]record, error) {
	recs := make([]record, len(c.Traces))
	errs := make([]error, len(c.Traces))
	par.Each(len(c.Traces), 0, func(_, i int) { recs[i], errs[i] = newRecord(feat, c.Traces[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// featurizeSplit featurizes a training corpus and an optional (nil)
// validation corpus in one featurization mode, in corpus order.
func featurizeSplit(mode FeatureMode, train, val *dataset.Corpus) (trainRecs, valRecs []record, err error) {
	feat := Featurizer{Mode: mode}
	if trainRecs, err = featurizeCorpus(&feat, train); err != nil || val == nil {
		return trainRecs, nil, err
	}
	valRecs, err = featurizeCorpus(&feat, val)
	return trainRecs, valRecs, err
}

// featurizeSource streams src once and featurizes exactly the traces
// named by the index sets, placing each at its set's rank so ordering
// matches the corresponding materialized split corpora. Indices absent
// from every set (e.g. the held-out test split) are skipped without
// featurization. The sets must be disjoint.
func featurizeSource(feat *Featurizer, src dataset.Source, idxSets ...[]int) ([][]record, error) {
	type loc struct{ set, rank int }
	where := make(map[int]loc)
	out := make([][]record, len(idxSets))
	for s, idx := range idxSets {
		out[s] = make([]record, len(idx))
		for r, j := range idx {
			if prev, dup := where[j]; dup {
				return nil, fmt.Errorf("core: trace %d appears in index sets %d and %d", j, prev.set, s)
			}
			where[j] = loc{set: s, rank: r}
		}
	}
	seen := 0
	err := src.Iter(func(i int, tr *dataset.Trace) error {
		l, ok := where[i]
		if !ok {
			return nil
		}
		rec, err := newRecord(feat, tr)
		if err != nil {
			return err
		}
		out[l.set][l.rank] = rec
		seen++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if seen != len(where) {
		return nil, fmt.Errorf("core: source yielded %d of %d requested traces (index out of range for this corpus?)", seen, len(where))
	}
	return out, nil
}

// samplesFromRecords derives one metric's sample set from featurized
// records: regression keeps only successful traces (failed executions have
// no defined latency or throughput), classification keeps everything with
// inverse-frequency class weights computed over the record set.
func samplesFromRecords(recs []record, metric Metric) []sample {
	var samples []sample
	if metric.IsRegression() {
		for _, r := range recs {
			if !r.met.Success {
				continue
			}
			samples = append(samples, sample{graph: r.graph, plan: r.plan, y: math.Log1p(metric.Value(r.met)), w: 1})
		}
		return samples
	}
	nPos, nNeg := 0, 0
	for _, r := range recs {
		if metric.Label(r.met) {
			nPos++
		} else {
			nNeg++
		}
	}
	total := float64(nPos + nNeg)
	wPos, wNeg := 1.0, 1.0
	if nPos > 0 && nNeg > 0 {
		wPos = total / (2 * float64(nPos))
		wNeg = total / (2 * float64(nNeg))
	}
	for _, r := range recs {
		y, w := 0.0, wNeg
		if metric.Label(r.met) {
			y, w = 1, wPos
		}
		samples = append(samples, sample{graph: r.graph, plan: r.plan, y: y, w: w})
	}
	return samples
}

// TrainPredictorSource trains like TrainPredictor, but streams the corpus
// from src instead of requiring materialized split corpora: trainIdx and
// valIdx (from dataset.SplitIndices) select and order the training and
// validation traces, and each selected trace is featurized during the
// streaming pass. Weights are bit-identical to TrainPredictor(train, val,
// cfg) over the equivalent materialized split.
func TrainPredictorSource(src dataset.Source, trainIdx, valIdx []int, cfg PredictorConfig) (*Predictor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	feat := Featurizer{Mode: cfg.Train.Mode}
	recs, err := featurizeSource(&feat, src, trainIdx, valIdx)
	if err != nil {
		return nil, err
	}
	return trainPredictorFromRecords(recs[0], recs[1], cfg)
}
