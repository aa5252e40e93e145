package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/placement"
)

// Value is one named number of a row. Names are stable snake_case
// (costream_q50, flatvec_acc, speedup_p50, …); accuracies are fractions.
type Value struct {
	Name string
	V    float64
}

// Row is one row of a table: the group it sits under ("" for none), its
// label, its values and the number of traces or queries behind them.
type Row struct {
	Group, Label string
	Values       []Value
	N            int
}

// Get returns r's value named name. A table's line format asks only for
// the names its rows carry, so a missing name is a bug and panics.
func (r Row) Get(name string) float64 {
	for _, v := range r.Values {
		if v.Name == name {
			return v.V
		}
	}
	panic(fmt.Sprintf("experiments: row %q has no value %q", r.Label, name))
}

// Has reports whether r carries a value named name.
func (r Row) Has(name string) bool {
	return slices.ContainsFunc(r.Values, func(v Value) bool { return v.Name == name })
}

// Table is one table or figure of the report: typed rows, notes printed
// after them, and the table's line format, which reads nothing but the
// row it is given and is set by the runner that builds the table.
// WriteText and WriteMarkdown are two views of it.
type Table struct {
	Title string
	Rows  []Row
	Notes []string
	line  func(Row) string
}

// groups returns the groups of t's rows in order of appearance.
func (t *Table) groups() []string {
	var gs []string
	for i, r := range t.Rows {
		if i == 0 || r.Group != t.Rows[i-1].Group {
			gs = append(gs, r.Group)
		}
	}
	return gs
}

// writeLines writes the table's body, one line each: a "<group>:"
// heading before the first row of each group, grouped rows indented by
// two spaces, then the notes.
func (t *Table) writeLines(w io.Writer) {
	for i, r := range t.Rows {
		indent := ""
		if r.Group != "" {
			if i == 0 || t.Rows[i-1].Group != r.Group {
				fmt.Fprintf(w, "%s:\n", r.Group)
			}
			indent = "  "
		}
		fmt.Fprintf(w, "%s%s\n", indent, t.line(r))
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, n)
	}
}

// WriteText renders the table as underlined plain text.
func (t *Table) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("-", len(t.Title)))
	t.writeLines(w)
	fmt.Fprintln(w)
}

// WriteMarkdown renders the table as a Markdown section holding the
// text body in a code block.
func (t *Table) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "## %s\n\n```\n", t.Title)
	t.writeLines(w)
	fmt.Fprint(w, "```\n\n")
}

// metricLine formats a COSTREAM-vs-FlatVector row of one cost metric
// (Exp 1, 3, 5a, 6).
func metricLine(r Row) string {
	if r.Has("costream_acc") {
		return fmt.Sprintf("%-18s COSTREAM acc=%5.1f%%          | FlatVector acc=%5.1f%%              (n=%d)",
			r.Label, 100*r.Get("costream_acc"), 100*r.Get("flatvec_acc"), r.N)
	}
	return fmt.Sprintf("%-18s COSTREAM Q50=%6.2f Q95=%8.2f | FlatVector Q50=%8.2f Q95=%10.2f  (n=%d)",
		r.Label, r.Get("costream_q50"), r.Get("costream_q95"), r.Get("flatvec_q50"), r.Get("flatvec_q95"), r.N)
}

// compareRows evaluates COSTREAM ensembles and the flat-vector baseline on
// an evaluation corpus over the given metrics, one row per metric under
// group, balancing classification subsets as the paper does.
func (s *Suite) compareRows(group string, eval *dataset.Corpus, metrics []core.Metric, balanceSeed int64) ([]Row, error) {
	var rows []Row
	for _, m := range metrics {
		co, err := s.ensemblePredictor(m)
		if err != nil {
			return nil, err
		}
		f, err := s.FlatModel(m)
		if err != nil {
			return nil, err
		}
		row, err := compareOn(co, f.Predictor(), eval, m, balanceSeed)
		if err != nil {
			return nil, err
		}
		row.Group = group
		rows = append(rows, row)
	}
	return rows, nil
}

// compareOn evaluates one COSTREAM predictor and one baseline predictor on
// a corpus for one metric: a row labelled with the metric, holding the
// costream_* and then the flatvec_* values of score, and COSTREAM's n.
func compareOn(co, fl placement.Predictor, eval *dataset.Corpus, m core.Metric, balanceSeed int64) (Row, error) {
	cv, n, err := score("costream", co, eval, m, balanceSeed)
	if err != nil {
		return Row{}, err
	}
	fv, _, err := score("flatvec", fl, eval, m, balanceSeed)
	if err != nil {
		return Row{}, err
	}
	return Row{Label: m.String(), Values: append(cv, fv...), N: n}, nil
}

// score evaluates one predictor on a corpus for one metric as the paper
// reports it: who_q50 and who_q95, q-error quantiles over the successful
// traces, for a regression metric; who_acc, accuracy on the
// label-balanced subset (the whole corpus when a class is absent), for a
// classification one. n counts the traces scored.
func score(who string, p placement.Predictor, eval *dataset.Corpus, m core.Metric, balanceSeed int64) ([]Value, int, error) {
	if !m.IsRegression() {
		acc, n, err := core.EvaluateClassificationBalanced(p, eval, m, balanceSeed)
		return []Value{{who + "_acc", acc}}, n, err
	}
	sum, err := core.EvaluateRegression(p, eval, m)
	return []Value{{who + "_q50", sum.Median}, {who + "_q95", sum.P95}}, sum.N, err
}
