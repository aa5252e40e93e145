package experiments

import (
	"fmt"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/scenario"
)

func (s *Suite) chainCorpus(n int) (*dataset.Corpus, error) {
	return s.corpus(fmt.Sprintf("chains/%d", n), func() (*dataset.Corpus, error) {
		cfg := scenario.FilterChainConfig(s.evalN(), 6000+int64(n), n)
		cfg.Sim = s.simConfig()
		return dataset.Build(cfg)
	})
}

// Exp5aUnseenPatterns evaluates the base models on 2/3/4-filter chains
// (Table VI-A): the structure is unseen, so errors grow with chain length,
// but COSTREAM stays far ahead of the flat-vector baseline. Each chain
// length is a group of the table, "<n>-filter chain".
func (s *Suite) Exp5aUnseenPatterns() (*Table, error) {
	var rows []Row
	for _, n := range []int{2, 3, 4} {
		eval, err := s.chainCorpus(n)
		if err != nil {
			return nil, err
		}
		group, err := s.compareRows(chainLabel(n), eval, core.AllMetrics(), 60+int64(n))
		if err != nil {
			return nil, err
		}
		rows = append(rows, group...)
	}
	return exp5aTable(rows), nil
}

func exp5aTable(rows []Row) *Table {
	return &Table{Title: "[Exp 5a / Table VI-A] Unseen query patterns (filter chains)", Rows: rows, line: metricLine}
}

func chainLabel(n int) string { return fmt.Sprintf("%d-filter chain", n) }

// cloneModel deep-copies a trained cost model so fine-tuning does not
// disturb the cached ensemble member.
func cloneModel(m *core.CostModel) (*core.CostModel, error) {
	net, err := gnn.NewZero(m.Net.Config())
	if err != nil {
		return nil, err
	}
	dst, src := net.Params(), m.Net.Params()
	for i := range dst {
		copy(dst[i], src[i])
	}
	return &core.CostModel{Metric: m.Metric, Feat: m.Feat, Net: net}, nil
}

// Exp5bFineTuning applies few-shot learning: the throughput model is
// fine-tuned with a small corpus of filter-chain queries and re-evaluated
// (Figure 11; the paper uses 3000 additional queries, scaled here). Each
// row is one chain length: the throughput q-error p50 and p95 before and
// after fine-tuning, over the chain corpus's n successful traces.
func (s *Suite) Exp5bFineTuning() (*Table, error) {
	base, err := s.Ensemble(core.MetricThroughput)
	if err != nil {
		return nil, err
	}
	tuned, err := cloneModel(base.Models[0])
	if err != nil {
		return nil, err
	}
	ftN := s.scaled(300, 60)
	// The "filter-chains" registry scenario cycles chain lengths 2-4 by
	// trace index, exactly the fine-tuning mix of the paper.
	ftCorpus, err := s.corpus("chains/finetune", func() (*dataset.Corpus, error) {
		return s.scenarioCorpus("filter-chains", ftN, 6500)
	})
	if err != nil {
		return nil, err
	}

	// Measure "before" with the single member model (the paper fine-tunes
	// its throughput model, not the ensemble).
	before := map[int][2]float64{}
	for _, n := range []int{2, 3, 4} {
		eval, err := s.chainCorpus(n)
		if err != nil {
			return nil, err
		}
		sum, err := core.EvaluateRegression(base.Models[0], eval, core.MetricThroughput)
		if err != nil {
			return nil, err
		}
		before[n] = [2]float64{sum.Median, sum.P95}
	}

	ftCfg := s.trainConfig(650)
	ftCfg.Epochs = s.scaled(20, 6)
	ftCfg.LR = 1e-3
	ftCfg.Patience = 0
	if err := tuned.FineTune(ftCorpus, ftCfg); err != nil {
		return nil, err
	}
	var rows []Row
	for _, n := range []int{2, 3, 4} {
		eval, err := s.chainCorpus(n)
		if err != nil {
			return nil, err
		}
		sum, err := core.EvaluateRegression(tuned, eval, core.MetricThroughput)
		if err != nil {
			return nil, err
		}
		b := before[n]
		rows = append(rows, Row{Label: chainLabel(n), N: sum.N, Values: []Value{
			{"before_q50", b[0]}, {"after_q50", sum.Median}, {"before_q95", b[1]}, {"after_q95", sum.P95},
		}})
	}
	return exp5bTable(ftCorpus.Len(), rows), nil
}

// exp5bTable titles Figure 11 with the size of the fine-tuning corpus.
func exp5bTable(extraQueries int, rows []Row) *Table {
	return &Table{Title: fmt.Sprintf("[Exp 5b / Figure 11] Few-shot fine-tuning of the throughput model (%d extra queries)", extraQueries),
		Rows: rows, line: func(r Row) string {
			return fmt.Sprintf("%s: Q50 %6.2f -> %6.2f | Q95 %8.2f -> %8.2f",
				r.Label, r.Get("before_q50"), r.Get("after_q50"), r.Get("before_q95"), r.Get("after_q95"))
		}}
}
