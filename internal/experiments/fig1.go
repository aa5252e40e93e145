package experiments

import (
	"fmt"
	"slices"

	"costream/internal/core"
	"costream/internal/qerror"
)

// Fig1Summary reproduces Figure 1 from the e2e-latency rows of the Exp 1,
// 3, 5a and 6 tables: median E2E-latency q-errors for queries similar to
// the training data versus entirely unseen hardware, query structures and
// benchmarks, for COSTREAM and the flat-vector baseline. A grouped table
// contributes the median over its groups, and a row's n sums its sources'.
// A table, or a group of one, without an e2e-latency row is an error
// naming it.
func Fig1Summary(e1, e3, e5a, e6 *Table) (*Table, error) {
	var rows []Row
	for _, sc := range []struct {
		name string
		src  *Table
	}{{"Seen queries", e1}, {"Unseen hardware", e3}, {"Unseen queries", e5a}, {"Unseen benchmark", e6}} {
		src, err := e2eRows(sc.src)
		if err != nil {
			return nil, err
		}
		var cos, fls []float64
		n := 0
		for _, r := range src {
			cos, fls = append(cos, r.Get("costream_q50")), append(fls, r.Get("flatvec_q50"))
			n += r.N
		}
		rows = append(rows, Row{Label: sc.name, N: n, Values: []Value{
			{"costream_q50", qerror.Quantile(cos, 0.5)}, {"flatvec_q50", qerror.Quantile(fls, 0.5)},
		}})
	}
	return fig1Table(rows), nil
}

func fig1Table(rows []Row) *Table {
	return &Table{Title: "[Figure 1] Median E2E-latency q-error: COSTREAM vs Flat Vector", Rows: rows,
		line: func(r Row) string {
			return fmt.Sprintf("%-17s COSTREAM %6.2f | FlatVector %8.2f", r.Label, r.Get("costream_q50"), r.Get("flatvec_q50"))
		}}
}

// e2eRows returns the e2e-latency row of every group of t, in group order.
func e2eRows(t *Table) ([]Row, error) {
	groups := t.groups()
	if len(groups) == 0 {
		groups = []string{""} // an empty table lacks the row too
	}
	rows := make([]Row, len(groups))
	for i, g := range groups {
		j := slices.IndexFunc(t.Rows, func(r Row) bool { return r.Group == g && r.Label == core.MetricE2ELatency.String() })
		if j < 0 {
			where := t.Title
			if g != "" {
				where += " / " + g
			}
			return nil, fmt.Errorf("%s has no e2e-latency row", where)
		}
		rows[i] = t.Rows[j]
	}
	return rows, nil
}
