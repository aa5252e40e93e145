package core

import (
	"fmt"
	"sync"

	"costream/internal/dataset"
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

// Predictor returns a predictor holding the ensemble alone, in its
// metric's slot.
func (e *Ensemble) Predictor() *Predictor {
	pr := &Predictor{}
	pr[e.Metric] = e
	return pr
}

// Predictor is a full COSTREAM cost predictor implementing
// placement.Predictor (Figure 4): one ensemble slot per cost metric,
// indexed by Metric. An untrained (nil) slot predicts optimistic sanity
// values (success, no backpressure) so a predictor trained for a single
// target metric still drives optimization.
type Predictor [NumMetrics]*Ensemble

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
		pr[m] = e
	}
	return pr, nil
}
