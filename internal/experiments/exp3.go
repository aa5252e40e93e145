package experiments

import (
	"costream/internal/core"
	"costream/internal/dataset"
)

// Exp3Interpolation evaluates the base models on queries executed on the
// unseen in-range hardware grid of Table IV-A, drawn from the
// "interpolation-hw" scenario of the registry (Table IV: interpolation to
// hardware inside the training range but never seen during training).
func (s *Suite) Exp3Interpolation() (*Table, error) {
	eval, err := s.corpus("interpolation", func() (*dataset.Corpus, error) {
		return s.scenarioCorpus("interpolation-hw", s.evalN(), 4100)
	})
	if err != nil {
		return nil, err
	}
	rows, err := s.compareRows("", eval, core.AllMetrics(), 41)
	if err != nil {
		return nil, err
	}
	return exp3Table(rows), nil
}

func exp3Table(rows []Row) *Table {
	return &Table{Title: "[Exp 3 / Table IV] Hardware interpolation (unseen in-range hardware)", Rows: rows, line: metricLine}
}
