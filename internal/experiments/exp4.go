package experiments

import (
	"fmt"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/workload"
)

// ExtrapolationCell is one column of Table V: one hardware dimension
// restricted during training and evaluated beyond the training range.
type ExtrapolationCell struct {
	Dimension string // RAM | CPU | Bandwidth | Latency
	Direction string // stronger | weaker
	Rows      []MetricRow
}

// Exp4Result reproduces Table V (A: stronger resources, B: weaker).
type Exp4Result struct {
	Cells []ExtrapolationCell
}

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
// graceful degradation, worst for slow networks — is preserved.
func (s *Suite) Exp4Extrapolation() (*Exp4Result, error) {
	res := &Exp4Result{}
	trainN := s.scaled(1200, 200)
	for si, spec := range exp4Specs() {
		seed := 5000 + int64(si)*17
		trainCorpus, err := s.corpus(fmt.Sprintf("exp4/train/%s-%s", spec.dim, spec.direction),
			func() (*dataset.Corpus, error) {
				gcfg := workload.DefaultConfig(seed)
				grid := hardware.TrainingGrid()
				spec.train(&grid)
				gcfg.HW = grid
				return dataset.Build(dataset.BuildConfig{N: trainN, Seed: seed, Gen: gcfg, Sim: s.simConfig()})
			})
		if err != nil {
			return nil, err
		}
		evalCorpus, err := s.corpus(fmt.Sprintf("exp4/eval/%s-%s", spec.dim, spec.direction),
			func() (*dataset.Corpus, error) {
				gcfg := workload.DefaultConfig(seed + 1)
				grid := hardware.TrainingGrid()
				spec.eval(&grid)
				gcfg.HW = grid
				return dataset.Build(dataset.BuildConfig{N: s.evalN(), Seed: seed + 1, Gen: gcfg, Sim: s.simConfig()})
			})
		if err != nil {
			return nil, err
		}
		train, val, _ := trainCorpus.Split(0.9, 0.1, seed)
		cell := ExtrapolationCell{Dimension: spec.dim, Direction: spec.direction}
		for _, m := range core.AllMetrics() {
			model, err := core.Train(train, val, m, s.smallTrainConfig(seed+int64(m)))
			if err != nil {
				return nil, err
			}
			row, err := evalOn(model, evalCorpus, m, seed)
			if err != nil {
				return nil, err
			}
			cell.Rows = append(cell.Rows, row)
		}
		s.Logf("exp4 %s/%s done", spec.dim, spec.direction)
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// Table renders Table V.
func (r *Exp4Result) Table() *Table {
	t := &Table{Title: "[Exp 4 / Table V] Hardware extrapolation beyond the training range"}
	for _, cell := range r.Cells {
		t.Lines = append(t.Lines, fmt.Sprintf("%s towards %s resources:", cell.Dimension, cell.Direction))
		for _, row := range cell.Rows {
			if row.IsRegression {
				t.Lines = append(t.Lines, fmt.Sprintf("  %-14s Q50=%6.2f Q95=%8.2f (n=%d)",
					row.Metric, row.CoQ50, row.CoQ95, row.N))
			} else {
				t.Lines = append(t.Lines, fmt.Sprintf("  %-14s acc=%5.1f%% (n=%d)",
					row.Metric, 100*row.CoAcc, row.N))
			}
		}
	}
	return t
}
