package experiments

import (
	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/scenario"
	"costream/internal/workload"
)

// Exp6Benchmarks evaluates the base models on the DSPBench-style benchmark
// queries (Advertisement, Spike Detection, Smart Grid global/local), each
// executed evalN times with random event rates and placements (Table
// VI-B). Each benchmark is a group of the table.
func (s *Suite) Exp6Benchmarks() (*Table, error) {
	var rows []Row
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
		group, err := s.compareRows(id.String(), eval, core.AllMetrics(), 70+int64(bi))
		if err != nil {
			return nil, err
		}
		rows = append(rows, group...)
	}
	return exp6Table(rows), nil
}

func exp6Table(rows []Row) *Table {
	return &Table{Title: "[Exp 6 / Table VI-B] Unseen real-world benchmarks", Rows: rows, line: metricLine}
}
