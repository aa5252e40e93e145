// Package experiments reproduces every table and figure of the COSTREAM
// paper's evaluation (Section VII): one runner per experiment, shared
// lazily-trained artifacts (corpora, model ensembles, baselines), and the
// report. Every runner returns a Table of typed rows (named values and an
// n per row); the plain-text and Markdown reports are two views of those
// rows. cmd/costream-expts drives these runners (Suite.RunAll).
package experiments

import (
	"fmt"
	"sync"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/flatvec"
	"costream/internal/gbdt"
	"costream/internal/par"
	"costream/internal/placement"
	"costream/internal/scenario"
	"costream/internal/sim"
)

// cell is a single-flight slot for a lazily built artifact: concurrent
// getters for the same key share one build instead of duplicating it.
type cell[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get returns the cached cell for key (creating an empty one under mu if
// needed) and runs build exactly once across all callers.
func get[T any](mu *sync.Mutex, m map[string]*cell[T], key string, build func() (T, error)) (T, error) {
	mu.Lock()
	cl, ok := m[key]
	if !ok {
		cl = &cell[T]{}
		m[key] = cl
	}
	mu.Unlock()
	cl.once.Do(func() { cl.val, cl.err = build() })
	return cl.val, cl.err
}

// Suite owns the shared artifacts of the experiment runs. All getters are
// lazy, cached and safe for concurrent use: experiments running in
// parallel under RunAll share single-flight artifact builds (ensemble
// members additionally train concurrently inside core).
type Suite struct {
	Scale float64
	// Logf receives progress lines; defaults to a no-op.
	Logf func(format string, args ...any)

	mu      sync.Mutex
	corpora map[string]*cell[*dataset.Corpus]
	ens     map[string]*cell[*core.Ensemble]
	flat    map[string]*cell[*flatvec.Model]
}

// NewSuite returns a Suite at the given scale.
func NewSuite(scale float64) *Suite {
	if scale <= 0 {
		scale = 1
	}
	return &Suite{
		Scale:   scale,
		Logf:    func(string, ...any) {},
		corpora: map[string]*cell[*dataset.Corpus]{},
		ens:     map[string]*cell[*core.Ensemble]{},
		flat:    map[string]*cell[*flatvec.Model]{},
	}
}

func (s *Suite) scaled(n int, min int) int {
	v := int(float64(n) * s.Scale)
	if v < min {
		v = min
	}
	return v
}

// simConfig is the simulator setup used for every experiment.
func (s *Suite) simConfig() sim.Config { return sim.DefaultConfig() }

// baseN is the corpus size standing in for the paper's 43,281 traces.
func (s *Suite) baseN() int { return s.scaled(2400, 300) }

// evalN is the per-scenario evaluation corpus size (the paper uses 100).
func (s *Suite) evalN() int { return s.scaled(100, 40) }

// trainConfig returns the GNN training configuration.
func (s *Suite) trainConfig(seed int64) core.TrainConfig {
	cfg := core.DefaultTrainConfig(seed)
	cfg.Epochs = s.scaled(45, 10)
	cfg.Patience = 8
	cfg.Hidden = 32
	cfg.LR = 3e-3
	return cfg
}

// smallTrainConfig is used where many models must be trained (Exp 4, 7).
func (s *Suite) smallTrainConfig(seed int64) core.TrainConfig {
	cfg := s.trainConfig(seed)
	cfg.Epochs = s.scaled(25, 8)
	cfg.Patience = 6
	return cfg
}

// each calls fn(i) for every i in [0, n) on par.Each's GOMAXPROCS
// goroutines and returns the error of the lowest failing i, or nil. An
// experiment runs its independent fits through it; the training budget
// already bounds how many fits train at once, and a result written to
// slot i keeps the experiment's output in index order.
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	par.Each(n, 0, func(_, i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EnsembleSize is the per-metric ensemble size (the paper uses 3).
const EnsembleSize = 3

// corpus returns (building if needed) a named corpus. Concurrent callers
// share one build.
func (s *Suite) corpus(name string, build func() (*dataset.Corpus, error)) (*dataset.Corpus, error) {
	return get(&s.mu, s.corpora, name, func() (*dataset.Corpus, error) {
		s.Logf("building corpus %q", name)
		c, err := build()
		if err != nil {
			return nil, fmt.Errorf("experiments: corpus %q: %w", name, err)
		}
		return c, nil
	})
}

// scenarioCorpus builds an n-trace corpus from a named scenario recipe
// with the suite's simulator configuration.
func (s *Suite) scenarioCorpus(name string, n int, seed int64) (*dataset.Corpus, error) {
	sc, err := scenario.Get(name)
	if err != nil {
		return nil, err
	}
	cfg := sc.Make(n, seed)
	cfg.Sim = s.simConfig()
	return dataset.Build(cfg)
}

// BaseCorpus is the main training benchmark (Section VI distribution),
// drawn from the "training" scenario of the registry.
func (s *Suite) BaseCorpus() (*dataset.Corpus, error) {
	return s.corpus("base", func() (*dataset.Corpus, error) {
		// Seed: arXiv submission date of the paper.
		return s.scenarioCorpus("training", s.baseN(), 20240313)
	})
}

// BaseSplit returns the 80/10/10 split of the base corpus.
func (s *Suite) BaseSplit() (train, val, test *dataset.Corpus, err error) {
	c, err := s.BaseCorpus()
	if err != nil {
		return nil, nil, nil, err
	}
	train, val, test = c.Split(0.8, 0.1, 1)
	return train, val, test, nil
}

// Ensemble returns the COSTREAM ensemble for a metric, trained on the base
// split: the metric's slot of a predictor trained for it alone.
// Concurrent callers share one training run.
func (s *Suite) Ensemble(m core.Metric) (*core.Ensemble, error) {
	return get(&s.mu, s.ens, "base/"+m.String(), func() (*core.Ensemble, error) {
		train, val, _, err := s.BaseSplit()
		if err != nil {
			return nil, err
		}
		s.Logf("training COSTREAM ensemble for %v (%d models)", m, EnsembleSize)
		pr, err := core.TrainPredictor(train, val, core.PredictorConfig{
			Train: s.trainConfig(100 + int64(m)), EnsembleSize: EnsembleSize, Metrics: []core.Metric{m}})
		if err != nil {
			return nil, err
		}
		return pr[m], nil
	})
}

// ensemblePredictor returns the COSTREAM ensemble for m as a predictor
// of that metric alone.
func (s *Suite) ensemblePredictor(m core.Metric) (placement.Predictor, error) {
	e, err := s.Ensemble(m)
	if err != nil {
		return nil, err
	}
	return e.Predictor(), nil
}

// FlatModel returns the flat-vector baseline model for a metric, trained
// on the base split. Concurrent callers share one training run.
func (s *Suite) FlatModel(m core.Metric) (*flatvec.Model, error) {
	return get(&s.mu, s.flat, "base/"+m.String(), func() (*flatvec.Model, error) {
		train, _, _, err := s.BaseSplit()
		if err != nil {
			return nil, err
		}
		s.Logf("training flat-vector baseline for %v", m)
		return flatvec.Train(train, m, gbdt.DefaultConfig(200+int64(m)))
	})
}

// Predictor assembles the full five-metric COSTREAM predictor from the
// cached ensembles.
func (s *Suite) Predictor() (*core.Predictor, error) {
	pr := &core.Predictor{}
	for _, m := range core.AllMetrics() {
		e, err := s.Ensemble(m)
		if err != nil {
			return nil, err
		}
		pr[m] = e
	}
	return pr, nil
}

// FlatPredictor assembles the flat-vector placement predictor.
func (s *Suite) FlatPredictor() (*flatvec.Predictor, error) {
	pr := &flatvec.Predictor{}
	for _, m := range core.AllMetrics() {
		f, err := s.FlatModel(m)
		if err != nil {
			return nil, err
		}
		pr[m] = f
	}
	return pr, nil
}
