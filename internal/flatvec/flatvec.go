// Package flatvec implements the paper's baseline cost model: the
// flat-vector featurization of Ganapathi et al. [16] extended with
// streaming and placement information, trained with gradient-boosted trees
// (substituting LightGBM [34]).
//
// The defining limitation — and the reason COSTREAM beats it — is that the
// feature vector has no structural encoding: operator properties are
// aggregated into fixed slots and hardware is summarized over the cluster,
// so the model cannot reason about which operator runs on which host.
package flatvec

import (
	"fmt"
	"math"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/gbdt"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// Dim is the flat vector dimensionality.
const Dim = 33

// queryDim is the number of leading vector entries that depend only on
// the query (not on the cluster or placement).
const queryDim = 19

// Featurize encodes an (analysed query, cluster, placement) triple into
// the flat vector. All aggregations are order-independent, mirroring the
// baseline's lack of structure.
func Featurize(a *stream.Analysis, c *hardware.Cluster, p sim.Placement) ([]float64, error) {
	return placementFeatures(queryFeatures(a), c, p)
}

// queryFeatures computes the placement-invariant query prefix of the flat
// vector, its queryDim entries. A scoring session computes it once and
// reuses it for every candidate.
func queryFeatures(a *stream.Analysis) []float64 {
	q := a.Query()
	v := make([]float64, 0, Dim)

	// Operator counts (5).
	for _, t := range []stream.OpType{stream.OpSource, stream.OpFilter, stream.OpJoin, stream.OpAggregate, stream.OpSink} {
		v = append(v, float64(q.CountType(t)))
	}

	// Source characteristics (4): sum and max event rate (log), mean
	// tuple width, mean field bytes.
	var sumRate, maxRate, width, bytes, nSrc float64
	for _, i := range q.Sources() {
		op := q.Ops[i]
		sumRate += op.EventRate
		if op.EventRate > maxRate {
			maxRate = op.EventRate
		}
		width += float64(len(op.FieldTypes))
		bytes += stream.AvgFieldBytes(op.FieldTypes)
		nSrc++
	}
	v = append(v, math.Log1p(sumRate), math.Log1p(maxRate), width/nSrc/10, bytes/nSrc/32)

	// Filter aggregates (3): product selectivity (log), min selectivity
	// (log), fraction of string-typed predicates.
	prodSel, minSel, strFrac, nFil := 1.0, 1.0, 0.0, 0.0
	for _, op := range q.Ops {
		if op.Type != stream.OpFilter {
			continue
		}
		nFil++
		prodSel *= op.Selectivity
		if op.Selectivity < minSel {
			minSel = op.Selectivity
		}
		if op.LiteralType == stream.TypeString {
			strFrac++
		}
	}
	if nFil > 0 {
		strFrac /= nFil
	}
	v = append(v, logSel(prodSel), logSel(minSel), strFrac)

	// Join aggregates (3): mean selectivity (log), mean window extent in
	// tuples (log, using upstream rates), fraction of string keys.
	var jSel, jWin, jStr, nJoin float64
	for i, op := range q.Ops {
		if op.Type != stream.OpJoin {
			continue
		}
		nJoin++
		jSel += logSel(op.Selectivity)
		jWin += math.Log1p(op.Window.ExtentTuples(a.In[i] / 2))
		if op.JoinKeyType == stream.TypeString {
			jStr++
		}
	}
	if nJoin > 0 {
		jSel /= nJoin
		jWin /= nJoin
		jStr /= nJoin
	}
	v = append(v, jSel, jWin, jStr)

	// Aggregation aggregates (4): count with group-by, mean selectivity,
	// mean window extent (log), fraction sliding.
	var aGB, aSel, aWin, aSlide, nAgg float64
	for i, op := range q.Ops {
		if op.Type != stream.OpAggregate {
			continue
		}
		nAgg++
		if op.HasGroupBy {
			aGB++
		}
		aSel += op.Selectivity
		aWin += math.Log1p(op.Window.ExtentTuples(a.In[i]))
		if op.Window.Type == stream.WindowSliding {
			aSlide++
		}
	}
	if nAgg > 0 {
		aSel /= nAgg
		aWin /= nAgg
		aSlide /= nAgg
	}
	v = append(v, aGB, aSel, aWin, aSlide)

	// Note: no derived per-operator or sink rates — the flat vector holds
	// only the query-level aggregates of [16]; composing rates through
	// joins and windows requires the structural encoding COSTREAM has.
	return v
}

// placementFeatures appends the cluster/placement summary to a copy of the
// query prefix, completing the flat vector.
func placementFeatures(prefix []float64, c *hardware.Cluster, p sim.Placement) ([]float64, error) {
	v := make([]float64, queryDim, Dim)
	copy(v, prefix)

	// Hardware summary (12): mean/min/max of the four features over the
	// hosts used by the placement — aggregate knowledge without the
	// operator-to-host mapping.
	used := map[int]bool{}
	for _, h := range p {
		used[h] = true
	}
	var cpus, rams, bws, lats []float64
	for h := range used {
		host := c.Hosts[h]
		cpus = append(cpus, host.CPU)
		rams = append(rams, host.RAMMB)
		bws = append(bws, host.NetBandwidthMbps)
		lats = append(lats, host.NetLatencyMS)
	}
	for _, vals := range [][]float64{cpus, rams, bws, lats} {
		mean, minV, maxV := summarize(vals)
		v = append(v, math.Log1p(mean), math.Log1p(minV), math.Log1p(maxV))
	}

	// Placement summary (2): number of distinct hosts, max co-location
	// degree. Structure beyond these scalars is lost.
	coloc := map[int]int{}
	maxColoc := 0
	for _, h := range p {
		coloc[h]++
		if coloc[h] > maxColoc {
			maxColoc = coloc[h]
		}
	}
	v = append(v, float64(len(used)), float64(maxColoc))

	if len(v) != Dim {
		return nil, fmt.Errorf("flatvec: feature vector has %d entries, want %d", len(v), Dim)
	}
	return v, nil
}

func logSel(s float64) float64 {
	return math.Log10(s+1e-6)/6 + 1
}

func summarize(vals []float64) (mean, min, max float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	min, max = vals[0], vals[0]
	for _, x := range vals {
		mean += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return mean / float64(len(vals)), min, max
}

// Model is one trained flat-vector baseline model for one metric.
type Model struct {
	Metric core.Metric
	reg    *gbdt.Regressor
	cls    *gbdt.Classifier
}

// Train fits the baseline for a metric on the corpus. Regression metrics
// are fitted in log1p space on successful traces, matching COSTREAM's
// target transform.
func Train(train *dataset.Corpus, metric core.Metric, cfg gbdt.Config) (*Model, error) {
	var X [][]float64
	var y []float64
	for _, tr := range train.Traces {
		if metric.IsRegression() && !tr.Metrics.Success {
			continue
		}
		a, err := tr.Query.Analyze()
		if err != nil {
			return nil, fmt.Errorf("flatvec: %w", err)
		}
		x, err := Featurize(a, tr.Cluster, tr.Placement)
		if err != nil {
			return nil, err
		}
		X = append(X, x)
		if metric.IsRegression() {
			y = append(y, math.Log1p(metric.Value(tr.Metrics)))
		} else if metric.Label(tr.Metrics) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	if len(X) == 0 {
		return nil, fmt.Errorf("flatvec: no usable traces for %v", metric)
	}
	m := &Model{Metric: metric}
	var err error
	if metric.IsRegression() {
		m.reg, err = gbdt.TrainRegressor(X, y, cfg)
	} else {
		m.cls, err = gbdt.TrainClassifier(X, y, cfg)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// PredictRaw returns the predicted cost value (regression) or positive
// probability (classification) for a placement.
func (m *Model) PredictRaw(a *stream.Analysis, c *hardware.Cluster, p sim.Placement) (float64, error) {
	x, err := Featurize(a, c, p)
	if err != nil {
		return 0, err
	}
	return m.predictVec(x), nil
}

// predictVec predicts from an already-featurized flat vector.
func (m *Model) predictVec(x []float64) float64 {
	if m.Metric.IsRegression() {
		v := math.Expm1(m.reg.Predict(x))
		if v < 0 {
			v = 0
		}
		return v
	}
	return m.cls.Predict(x)
}

// Predictor returns a predictor holding the model alone, in its metric's
// slot.
func (m *Model) Predictor() *Predictor {
	pr := &Predictor{}
	pr[m.Metric] = m
	return pr
}

// Predictor bundles flat-vector models, one slot per cost metric indexed
// by core.Metric, and implements placement.Predictor for the Exp 2a
// comparison. An untrained (nil) slot predicts the untrained default.
type Predictor [core.NumMetrics]*Model

// TrainPredictor trains the baseline for all five metrics.
func TrainPredictor(train *dataset.Corpus, cfg gbdt.Config) (*Predictor, error) {
	pr := &Predictor{}
	for _, m := range core.AllMetrics() {
		mod, err := Train(train, m, cfg)
		if err != nil {
			return nil, err
		}
		pr[m] = mod
	}
	return pr, nil
}

// NewScoreSession implements placement.Predictor: the query-level prefix
// of the flat vector is computed once per session, a tile featurizes each
// of its candidates once for all the models it runs, and it runs only the
// models of the costs need names. Every field equals the per-metric
// Model.PredictRaw path (classifiers thresholded at 0.5); a named cost
// without a model gets the untrained default (Success true, everything
// else zero).
func (pr *Predictor) NewScoreSession(a *stream.Analysis, k hardware.Checked) (placement.TileScorer, error) {
	return &session{pr: pr, c: k.Cluster(), prefix: queryFeatures(a)}, nil
}

type session struct {
	pr     *Predictor
	c      *hardware.Cluster
	prefix []float64
}

// TileSize implements placement.TileScorer: a tile's candidates share
// nothing beyond the session's prefix, so tiles are single candidates.
func (*session) TileSize() int { return 1 }

// ScoreTile implements placement.TileScorer.
func (s *session) ScoreTile(cands []sim.Placement, need placement.CostSet, out []placement.PredCosts) error {
	if len(out) != len(cands) {
		return fmt.Errorf("flatvec: tile output holds %d slots, want %d", len(out), len(cands))
	}
	for i, p := range cands {
		x, err := placementFeatures(s.prefix, s.c, p)
		if err != nil {
			return fmt.Errorf("flatvec: tile candidate %d: %w", i, err)
		}
		need.Copy(&out[i], placement.PredCosts{Success: true})
		for _, mod := range s.pr {
			if mod != nil && need&mod.Metric.Cost() != 0 {
				mod.Metric.SetRaw(&out[i], mod.predictVec(x))
			}
		}
	}
	return nil
}
