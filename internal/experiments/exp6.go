package experiments

import (
	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/scenario"
	"costream/internal/workload"
)

// BenchmarkGroup is one column of Table VI-B: prediction quality on one
// unseen real-world benchmark query.
type BenchmarkGroup struct {
	Benchmark string
	Rows      []MetricRow
}

// Exp6Result reproduces Table VI-B.
type Exp6Result struct {
	Groups []BenchmarkGroup
}

// Exp6Benchmarks evaluates the base models on the DSPBench-style benchmark
// queries (Advertisement, Spike Detection, Smart Grid global/local), each
// executed evalN times with random event rates and placements.
func (s *Suite) Exp6Benchmarks() (*Exp6Result, error) {
	res := &Exp6Result{}
	for bi, id := range workload.AllBenchmarks() {
		id := id
		eval, err := s.corpus("benchmark/"+id.String(), func() (*dataset.Corpus, error) {
			cfg := scenario.BenchmarkConfig(s.evalN(), 7000+int64(bi), id)
			cfg.Sim = s.simConfig()
			return dataset.Build(cfg)
		})
		if err != nil {
			return nil, err
		}
		rows, err := s.compareRows(eval, core.AllMetrics(), 70+int64(bi))
		if err != nil {
			return nil, err
		}
		res.Groups = append(res.Groups, BenchmarkGroup{Benchmark: id.String(), Rows: rows})
	}
	return res, nil
}

// Table renders Table VI-B.
func (r *Exp6Result) Table() *Table {
	t := &Table{Title: "[Exp 6 / Table VI-B] Unseen real-world benchmarks"}
	for _, g := range r.Groups {
		t.Lines = append(t.Lines, g.Benchmark+":")
		for _, row := range g.Rows {
			t.Lines = append(t.Lines, "  "+row.format())
		}
	}
	return t
}
