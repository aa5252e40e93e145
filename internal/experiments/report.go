package experiments

import (
	"fmt"
	"io"
	"strings"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/placement"
)

// MetricRow is one table row comparing COSTREAM and the flat-vector
// baseline on one cost metric.
type MetricRow struct {
	Metric       string
	IsRegression bool
	// Regression: q-error quantiles.
	CoQ50, CoQ95 float64
	FlQ50, FlQ95 float64
	// Classification: accuracy in [0,1].
	CoAcc, FlAcc float64
	N            int
}

func (r MetricRow) format() string {
	if r.IsRegression {
		return fmt.Sprintf("%-18s COSTREAM Q50=%6.2f Q95=%8.2f | FlatVector Q50=%8.2f Q95=%10.2f  (n=%d)",
			r.Metric, r.CoQ50, r.CoQ95, r.FlQ50, r.FlQ95, r.N)
	}
	return fmt.Sprintf("%-18s COSTREAM acc=%5.1f%%          | FlatVector acc=%5.1f%%              (n=%d)",
		r.Metric, 100*r.CoAcc, 100*r.FlAcc, r.N)
}

// Table is a titled collection of rows with free-form lines.
type Table struct {
	Title string
	Lines []string
}

// WriteText renders the table.
func (t *Table) WriteText(w io.Writer) {
	fmt.Fprintln(w, t.Title)
	fmt.Fprintln(w, strings.Repeat("-", len(t.Title)))
	for _, l := range t.Lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w)
}

// compareRows evaluates COSTREAM ensembles and the flat-vector baseline on
// an evaluation corpus over the given metrics, balancing classification
// subsets as the paper does.
func (s *Suite) compareRows(eval *dataset.Corpus, metrics []core.Metric, balanceSeed int64) ([]MetricRow, error) {
	var rows []MetricRow
	for _, m := range metrics {
		e, err := s.Ensemble(m)
		if err != nil {
			return nil, err
		}
		f, err := s.FlatModel(m)
		if err != nil {
			return nil, err
		}
		row, err := compareOn(e.Predictor(), f.Predictor(), eval, m, balanceSeed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// compareOn evaluates one COSTREAM predictor and one baseline predictor on
// a corpus for one metric.
func compareOn(co, fl placement.Predictor, eval *dataset.Corpus, m core.Metric, balanceSeed int64) (MetricRow, error) {
	row, err := evalOn(co, eval, m, balanceSeed)
	if err != nil {
		return row, err
	}
	f, err := evalOn(fl, eval, m, balanceSeed)
	if err != nil {
		return row, err
	}
	row.FlQ50, row.FlQ95, row.FlAcc = f.CoQ50, f.CoQ95, f.CoAcc
	return row, nil
}

// evalOn scores one predictor on a corpus for one metric and returns the
// row with its COSTREAM columns set: q-error quantiles over the successful
// traces for a regression metric, accuracy on the label-balanced subset
// (the whole corpus when a class is absent) for a classification one, as
// the paper reports.
func evalOn(p placement.Predictor, eval *dataset.Corpus, m core.Metric, balanceSeed int64) (MetricRow, error) {
	row := MetricRow{Metric: m.String(), IsRegression: m.IsRegression()}
	if !m.IsRegression() {
		var err error
		row.CoAcc, row.N, err = core.EvaluateClassificationBalanced(p, eval, m, balanceSeed)
		return row, err
	}
	sum, err := core.EvaluateRegression(p, eval, m)
	row.CoQ50, row.CoQ95, row.N = sum.Median, sum.P95, sum.N
	return row, err
}
