package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"costream/internal/dataset"
	"costream/internal/par"
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

// Shape reports what the predictor's ensembles were trained as: members
// per metric and the GNN hidden width, read from the first trained slot
// (zeros for an empty predictor). TrainPredictor gives every ensemble the
// same shape, with the defaults a zero PredictorConfig field stands for
// already applied.
func (p *Predictor) Shape() (members, hidden int) {
	for _, e := range p {
		if e != nil && len(e.Models) > 0 {
			return len(e.Models), e.Models[0].Net.Config().Hidden
		}
	}
	return 0, 0
}

// PredictorConfig controls TrainPredictor.
type PredictorConfig struct {
	Train TrainConfig
	// EnsembleSize is the number of models per metric; 0 means 3, the
	// paper's size, and a negative size is refused.
	EnsembleSize int
	// Metrics restricts training to a subset; nil means all five.
	Metrics []Metric
}

// TrainPredictor trains ensembles for the requested metrics. Every trace
// is featurized once; the graphs are shared, read-only, by all metrics
// and ensemble members.
func TrainPredictor(train, val *dataset.Corpus, cfg PredictorConfig) (*Predictor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	trainRecs, valRecs, err := featurizeSplit(cfg.Train.Mode, train, val)
	if err != nil {
		return nil, err
	}
	return trainPredictorFromRecords(trainRecs, valRecs, cfg)
}

// validate refuses, before any trace is featurized, a training config no
// fit can train with, a negative ensemble size and a metric named twice,
// whose second ensemble would silently replace the first.
func (cfg *PredictorConfig) validate() error {
	if err := cfg.Train.validate(); err != nil {
		return err
	}
	if cfg.EnsembleSize < 0 {
		return fmt.Errorf("core: predictor config: EnsembleSize %d, want >= 0 (0 = 3)", cfg.EnsembleSize)
	}
	seen := map[Metric]bool{}
	for _, m := range cfg.Metrics {
		if seen[m] {
			return fmt.Errorf("core: metric %v requested twice", m)
		}
		seen[m] = true
	}
	return nil
}

// trainPredictorFromRecords is the shared tail of TrainPredictor and
// TrainPredictorSource: it trains every (metric, member) fit of the
// predictor on one pool sized to the training budget.
//
// Each fit is one job; member i of a metric is seeded cfg.Train.Seed +
// 7919·i. par.Each starts the jobs in a fixed order, largest training set
// first, on min(jobs, budget) runners, so every core stays busy through
// its own fit's serial optimizer step. A runner takes one tapes from
// tapesPool for all of its fits, and every tapes goes back to the pool
// once every job has run: a fit after the runner's first, and every fit
// of a later call that finds a tapes in the pool, starts on arenas and a
// fit-state slab already grown, and allocates only its model. A fit's
// weights depend on neither the budget nor the schedule. No job past the
// first one to fail starts; a job is only ever skipped past a failed
// one, so the first failing job in pull order always runs, and the error
// returned is its error on every run.
func trainPredictorFromRecords(trainRecs, valRecs []record, cfg PredictorConfig) (*Predictor, error) {
	k := cfg.EnsembleSize
	if k == 0 {
		k = 3
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = AllMetrics()
	}
	type fitJob struct {
		ens        *Ensemble
		member     int
		train, val []sample // shared by the ensemble's members
		err        error
	}
	ensembles := make([]*Ensemble, len(metrics))
	jobs := make([]fitJob, 0, len(metrics)*k)
	for i, m := range metrics {
		ensembles[i] = &Ensemble{Metric: m, Models: make([]*CostModel, k)}
		ts, vs := samplesFromRecords(trainRecs, m), samplesFromRecords(valRecs, m)
		for member := range k {
			jobs = append(jobs, fitJob{ens: ensembles[i], member: member, train: ts, val: vs})
		}
	}
	// Largest training set first, so the fits that start last are short.
	sort.SliceStable(jobs, func(a, b int) bool { return len(jobs[a].train) > len(jobs[b].train) })

	runners := max(1, min(len(jobs), cap(trainBudget)))
	tps := make([]*tapes, runners) // runner w's fits run on tps[w] one after another
	defer func() {
		for _, tp := range tps {
			if tp != nil {
				tapesPool.Put(tp)
			}
		}
	}()
	// stop is the index of the first job to fail, len(jobs) until one does.
	var stop atomic.Int64
	stop.Store(int64(len(jobs)))
	par.Each(len(jobs), runners, func(w, n int) {
		if int64(n) > stop.Load() {
			return
		}
		if tps[w] == nil {
			tps[w] = tapesPool.Get().(*tapes)
		}
		job := &jobs[n]
		c := cfg.Train
		c.Seed += int64(job.member) * 7919
		c.member = job.member
		// fit shuffles its training slice in place; the graphs behind
		// the copies stay shared and read-only.
		ts := append([]sample(nil), job.train...)
		vs := append([]sample(nil), job.val...)
		if job.ens.Models[job.member], job.err = trainFromSamples(tps[w], job.ens.Metric, ts, vs, c); job.err != nil {
			stop.CompareAndSwap(int64(len(jobs)), int64(n))
		}
	})
	for _, job := range jobs {
		if job.err != nil {
			return nil, fmt.Errorf("core: training %v: %w", job.ens.Metric, job.err)
		}
	}
	pr := &Predictor{}
	for _, e := range ensembles {
		// Build the weight stack once at train time: an ensemble whose
		// members cannot stack could serve no prediction.
		if _, err := e.stacked(); err != nil {
			return nil, fmt.Errorf("core: training %v: %w", e.Metric, err)
		}
		pr[e.Metric] = e
	}
	return pr, nil
}
