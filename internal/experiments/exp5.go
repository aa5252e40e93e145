package experiments

import (
	"fmt"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/scenario"
)

// ChainGroup is one column of Table VI-A: prediction quality on filter
// chains of a given length, a query pattern absent from training data.
type ChainGroup struct {
	Filters int
	Rows    []MetricRow
}

// Exp5aResult reproduces Table VI-A.
type Exp5aResult struct {
	Groups []ChainGroup
}

func (s *Suite) chainCorpus(n int) (*dataset.Corpus, error) {
	return s.corpus(fmt.Sprintf("chains/%d", n), func() (*dataset.Corpus, error) {
		cfg := scenario.FilterChainConfig(s.evalN(), 6000+int64(n), n)
		cfg.Sim = s.simConfig()
		return dataset.Build(cfg)
	})
}

// Exp5aUnseenPatterns evaluates the base models on 2/3/4-filter chains
// (Table VI-A): the structure is unseen, so errors grow with chain length,
// but COSTREAM stays far ahead of the flat-vector baseline.
func (s *Suite) Exp5aUnseenPatterns() (*Exp5aResult, error) {
	res := &Exp5aResult{}
	for _, n := range []int{2, 3, 4} {
		eval, err := s.chainCorpus(n)
		if err != nil {
			return nil, err
		}
		rows, err := s.compareRows(eval, core.AllMetrics(), 60+int64(n))
		if err != nil {
			return nil, err
		}
		res.Groups = append(res.Groups, ChainGroup{Filters: n, Rows: rows})
	}
	return res, nil
}

// Table renders Table VI-A.
func (r *Exp5aResult) Table() *Table {
	t := &Table{Title: "[Exp 5a / Table VI-A] Unseen query patterns (filter chains)"}
	for _, g := range r.Groups {
		t.Lines = append(t.Lines, fmt.Sprintf("%d-filter chain:", g.Filters))
		for _, row := range g.Rows {
			t.Lines = append(t.Lines, "  "+row.format())
		}
	}
	return t
}

// FineTuneRow is one group of Figure 11: throughput q-errors on a chain
// length before and after few-shot fine-tuning.
type FineTuneRow struct {
	Filters              int
	BeforeQ50, BeforeQ95 float64
	AfterQ50, AfterQ95   float64
}

// Exp5bResult reproduces Figure 11.
type Exp5bResult struct {
	Rows []FineTuneRow
	// ExtraQueries is the size of the fine-tuning corpus.
	ExtraQueries int
}

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
// (Figure 11; the paper uses 3000 additional queries, scaled here).
func (s *Suite) Exp5bFineTuning() (*Exp5bResult, error) {
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
	res := &Exp5bResult{ExtraQueries: ftCorpus.Len()}

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
		res.Rows = append(res.Rows, FineTuneRow{
			Filters:   n,
			BeforeQ50: b[0], BeforeQ95: b[1],
			AfterQ50: sum.Median, AfterQ95: sum.P95,
		})
	}
	return res, nil
}

// Table renders Figure 11.
func (r *Exp5bResult) Table() *Table {
	t := &Table{Title: fmt.Sprintf("[Exp 5b / Figure 11] Few-shot fine-tuning of the throughput model (%d extra queries)", r.ExtraQueries)}
	for _, row := range r.Rows {
		t.Lines = append(t.Lines, fmt.Sprintf(
			"%d-filter chain: Q50 %6.2f -> %6.2f | Q95 %8.2f -> %8.2f",
			row.Filters, row.BeforeQ50, row.AfterQ50, row.BeforeQ95, row.AfterQ95))
	}
	return t
}
