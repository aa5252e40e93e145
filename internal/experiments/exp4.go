package experiments

import (
	"fmt"
	"sync/atomic"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/workload"
)

// extrapolationSpec mirrors the training/evaluation ranges of Table V.
type extrapolationSpec struct {
	dim       string
	direction string
	train     func(g *hardware.Grid)
	eval      func(g *hardware.Grid)
}

func exp4Specs() []extrapolationSpec {
	return []extrapolationSpec{
		// A: extrapolation towards stronger resources.
		{"RAM", "stronger",
			func(g *hardware.Grid) { g.RAMMB = []float64{1000, 2000, 4000, 8000, 16000} },
			func(g *hardware.Grid) { g.RAMMB = []float64{24000, 32000} }},
		{"CPU", "stronger",
			func(g *hardware.Grid) { g.CPU = []float64{50, 100, 200, 300, 400, 500, 600} },
			func(g *hardware.Grid) { g.CPU = []float64{700, 800} }},
		{"Bandwidth", "stronger",
			func(g *hardware.Grid) { g.Bandwidth = []float64{25, 50, 100, 200, 300, 800, 1600, 3200} },
			func(g *hardware.Grid) { g.Bandwidth = []float64{6400, 10000} }},
		{"Latency", "stronger",
			func(g *hardware.Grid) { g.LatencyMS = []float64{5, 10, 20, 40, 80, 160} },
			func(g *hardware.Grid) { g.LatencyMS = []float64{1, 2} }},
		// B: extrapolation towards weaker resources.
		{"RAM", "weaker",
			func(g *hardware.Grid) { g.RAMMB = []float64{4000, 8000, 16000, 24000, 32000} },
			func(g *hardware.Grid) { g.RAMMB = []float64{1000, 2000} }},
		{"CPU", "weaker",
			func(g *hardware.Grid) { g.CPU = []float64{200, 300, 400, 500, 600, 700, 800} },
			func(g *hardware.Grid) { g.CPU = []float64{50, 100} }},
		{"Bandwidth", "weaker",
			func(g *hardware.Grid) { g.Bandwidth = []float64{100, 200, 300, 800, 1600, 3200, 6400, 10000} },
			func(g *hardware.Grid) { g.Bandwidth = []float64{25, 50} }},
		{"Latency", "weaker",
			func(g *hardware.Grid) { g.LatencyMS = []float64{1, 2, 5, 10, 20, 40} },
			func(g *hardware.Grid) { g.LatencyMS = []float64{80, 160} }},
	}
}

// Exp4Extrapolation retrains COSTREAM per Table V cell on a restricted
// hardware range and evaluates beyond it. Single models (not ensembles)
// keep the 8 cells x 5 metrics tractable; the paper's qualitative claim —
// graceful degradation, worst for slow networks — is preserved. The
// cells' corpora are built at once, then all 40 fits run at once: each
// depends only on its cell and metric, so the table does not depend on
// GOMAXPROCS. A cell logs when its last fit is evaluated. Each cell of
// Table V (A: stronger resources, B: weaker) is a group of the table,
// "<dimension> towards <direction> resources", holding one row of
// COSTREAM values per metric.
func (s *Suite) Exp4Extrapolation() (*Table, error) {
	specs := exp4Specs()
	trainN := s.scaled(1200, 200)
	seed := func(si int) int64 { return 5000 + int64(si)*17 }
	type corpora struct{ train, val, eval *dataset.Corpus }
	cells := make([]corpora, len(specs))
	err := each(len(specs), func(si int) error {
		spec := specs[si]
		trainCorpus, err := s.corpus(fmt.Sprintf("exp4/train/%s-%s", spec.dim, spec.direction),
			func() (*dataset.Corpus, error) {
				gcfg := workload.DefaultConfig(seed(si))
				grid := hardware.TrainingGrid()
				spec.train(&grid)
				gcfg.HW = grid
				return dataset.Build(dataset.BuildConfig{N: trainN, Seed: seed(si), Gen: gcfg, Sim: s.simConfig()})
			})
		if err != nil {
			return err
		}
		evalCorpus, err := s.corpus(fmt.Sprintf("exp4/eval/%s-%s", spec.dim, spec.direction),
			func() (*dataset.Corpus, error) {
				gcfg := workload.DefaultConfig(seed(si) + 1)
				grid := hardware.TrainingGrid()
				spec.eval(&grid)
				gcfg.HW = grid
				return dataset.Build(dataset.BuildConfig{N: s.evalN(), Seed: seed(si) + 1, Gen: gcfg, Sim: s.simConfig()})
			})
		if err != nil {
			return err
		}
		train, val, _ := trainCorpus.Split(0.9, 0.1, seed(si))
		cells[si] = corpora{train, val, evalCorpus}
		return nil
	})
	if err != nil {
		return nil, err
	}

	metrics := core.AllMetrics()
	rows := make([]Row, len(specs)*len(metrics))
	left := make([]atomic.Int32, len(specs))
	for si := range specs {
		left[si].Store(int32(len(metrics)))
	}
	err = each(len(rows), func(k int) error {
		si, mi := k/len(metrics), k%len(metrics)
		m, c := metrics[mi], cells[si]
		model, err := core.Train(c.train, c.val, m, s.smallTrainConfig(seed(si)+int64(m)))
		if err != nil {
			return err
		}
		vals, n, err := score("costream", model, c.eval, m, seed(si))
		if err != nil {
			return err
		}
		group := fmt.Sprintf("%s towards %s resources", specs[si].dim, specs[si].direction)
		rows[k] = Row{Group: group, Label: m.String(), Values: vals, N: n}
		if left[si].Add(-1) == 0 {
			s.Logf("exp4 %s/%s done", specs[si].dim, specs[si].direction)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return exp4Table(rows), nil
}

func exp4Table(rows []Row) *Table {
	return &Table{Title: "[Exp 4 / Table V] Hardware extrapolation beyond the training range", Rows: rows,
		line: func(r Row) string {
			if r.Has("costream_acc") {
				return fmt.Sprintf("%-14s acc=%5.1f%% (n=%d)", r.Label, 100*r.Get("costream_acc"), r.N)
			}
			return fmt.Sprintf("%-14s Q50=%6.2f Q95=%8.2f (n=%d)", r.Label, r.Get("costream_q50"), r.Get("costream_q95"), r.N)
		}}
}
