package core

import (
	"fmt"
	"sync"

	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// Ensemble combines several independently seeded models for one metric
// (Section IV-A): predictions are averaged for regression metrics and
// majority-voted for the binary metrics, reducing prediction uncertainty.
//
// Predictions run through a weight stack (gnn.StackedModel), built from
// copies of the member weights on first use, that advances all members in
// one kernel pass per message-passing phase; a member's weights changed in
// place after that first use are not seen.
type Ensemble struct {
	Metric Metric
	Models []*CostModel

	stackOnce sync.Once
	stack     *ensembleStack
}

// TrainEnsemble trains k models with different random initialization seeds
// in parallel, over one featurization of the corpora shared by all
// members. Each member's data-parallel fit workers draw from the
// process-wide training budget (SetTrainBudget), so the metric x member x
// worker fan-out never oversubscribes the machine regardless of k.
func TrainEnsemble(train, val *dataset.Corpus, metric Metric, cfg TrainConfig, k int) (*Ensemble, error) {
	trainRecs, valRecs, err := featurizeSplit(cfg.Mode, train, val)
	if err != nil {
		return nil, err
	}
	return trainEnsembleFromSamples(metric, samplesFromRecords(trainRecs, metric), samplesFromRecords(valRecs, metric), cfg, k)
}

// predictOne scores one placement with the ensemble alone: a tile of one
// on a session of a predictor holding only this ensemble, so it runs the
// same packed kernels as a search round.
func (e *Ensemble) predictOne(q *stream.Query, c *hardware.Cluster, p sim.Placement) (placement.PredCosts, error) {
	pr := &Predictor{}
	pr.set(e.Metric, e)
	return placement.PredictOne(pr, q, c, p)
}

// PredictValue returns the ensemble's regression estimate (mean of member
// predictions). It errors for classification metrics. The placement is
// featurized once for the whole ensemble and all members advance through
// the packed tile kernel as a tile of one (bit-identical to per-member
// inference).
func (e *Ensemble) PredictValue(q *stream.Query, c *hardware.Cluster, p sim.Placement) (float64, error) {
	if !e.Metric.IsRegression() {
		return 0, fmt.Errorf("core: %v is not a regression metric", e.Metric)
	}
	costs, err := e.predictOne(q, c, p)
	if err != nil {
		return 0, err
	}
	switch e.Metric {
	case MetricThroughput:
		return costs.ThroughputTPS, nil
	case MetricProcLatency:
		return costs.ProcLatencyMS, nil
	}
	return costs.E2ELatencyMS, nil
}

// PredictLabel returns the ensemble's majority vote for a binary metric.
func (e *Ensemble) PredictLabel(q *stream.Query, c *hardware.Cluster, p sim.Placement) (bool, error) {
	if e.Metric.IsRegression() {
		return false, fmt.Errorf("core: %v is not a classification metric", e.Metric)
	}
	costs, err := e.predictOne(q, c, p)
	if err != nil {
		return false, err
	}
	if e.Metric == MetricBackpressure {
		return costs.Backpressured, nil
	}
	return costs.Success, nil
}

// PredictTrace predicts for a stored trace: the mean value for regression
// metrics or the majority-vote probability (vote fraction) for binary ones.
func (e *Ensemble) PredictTrace(tr *dataset.Trace) (float64, error) {
	if e.Metric.IsRegression() {
		return e.PredictValue(tr.Query, tr.Cluster, tr.Placement)
	}
	label, err := e.PredictLabel(tr.Query, tr.Cluster, tr.Placement)
	if err != nil {
		return 0, err
	}
	if label {
		return 1, nil
	}
	return 0, nil
}

// Predictor bundles the five per-metric ensembles into a full COSTREAM
// cost predictor implementing placement.Predictor (Figure 4). Missing
// ensembles default to optimistic sanity values (success, no
// backpressure) so a predictor trained for a single target metric still
// drives optimization.
type Predictor struct {
	Throughput   *Ensemble
	ProcLatency  *Ensemble
	E2ELatency   *Ensemble
	Backpressure *Ensemble
	Success      *Ensemble
}

// MetricEnsemble pairs a cost metric with its predictor slot.
type MetricEnsemble struct {
	Metric   Metric
	Ensemble *Ensemble // nil when the metric was not trained
}

// Ensembles lists the predictor's five slots in paper order, including
// untrained (nil) ones. It is the single source of the slot <-> metric
// correspondence for serialization, CLIs and the serving layer.
func (pr *Predictor) Ensembles() []MetricEnsemble {
	return []MetricEnsemble{
		{MetricThroughput, pr.Throughput},
		{MetricProcLatency, pr.ProcLatency},
		{MetricE2ELatency, pr.E2ELatency},
		{MetricBackpressure, pr.Backpressure},
		{MetricSuccess, pr.Success},
	}
}

// PredictorConfig controls TrainPredictor.
type PredictorConfig struct {
	Train TrainConfig
	// EnsembleSize is the number of models per metric (the paper uses 3).
	EnsembleSize int
	// Metrics restricts training to a subset; nil means all five.
	Metrics []Metric
}

// TrainPredictor trains ensembles for the requested metrics. Every trace
// is featurized once; the graphs are shared, read-only, by all metrics
// and ensemble members.
func TrainPredictor(train, val *dataset.Corpus, cfg PredictorConfig) (*Predictor, error) {
	trainRecs, valRecs, err := featurizeSplit(cfg.Train.Mode, train, val)
	if err != nil {
		return nil, err
	}
	return trainPredictorFromRecords(trainRecs, valRecs, cfg)
}

// set stores the metric's ensemble in its predictor slot.
func (pr *Predictor) set(m Metric, e *Ensemble) {
	switch m {
	case MetricThroughput:
		pr.Throughput = e
	case MetricProcLatency:
		pr.ProcLatency = e
	case MetricE2ELatency:
		pr.E2ELatency = e
	case MetricBackpressure:
		pr.Backpressure = e
	case MetricSuccess:
		pr.Success = e
	}
}

// trainPredictorFromRecords is the shared tail of TrainPredictor and
// TrainPredictorSource: per requested metric, derive the samples from the
// featurized records and train the ensemble.
func trainPredictorFromRecords(trainRecs, valRecs []record, cfg PredictorConfig) (*Predictor, error) {
	if cfg.EnsembleSize <= 0 {
		cfg.EnsembleSize = 3
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = AllMetrics()
	}
	pr := &Predictor{}
	for _, m := range metrics {
		e, err := trainEnsembleFromSamples(m,
			samplesFromRecords(trainRecs, m),
			samplesFromRecords(valRecs, m),
			cfg.Train, cfg.EnsembleSize)
		if err != nil {
			return nil, fmt.Errorf("core: training %v: %w", m, err)
		}
		pr.set(m, e)
	}
	return pr, nil
}
