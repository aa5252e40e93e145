package experiments

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// constPredictor predicts the raw value v for every metric of every
// trace: v itself as a cost, and the positive class for v above 0.5.
func constPredictor(v float64) placement.Predictor {
	return placement.PredictorFunc(func(*stream.Analysis, hardware.Checked, sim.Placement) (placement.PredCosts, error) {
		var costs placement.PredCosts
		for _, m := range core.AllMetrics() {
			m.SetRaw(&costs, v)
		}
		return costs, nil
	})
}

// fakeCorpus holds n traces of one valid query on one valid host:
// evaluation analyses each trace's query and checks its cluster before it
// predicts.
func fakeCorpus(n int, throughput float64, backpressured bool) *dataset.Corpus {
	c := &dataset.Corpus{}
	host := &hardware.Cluster{Hosts: []*hardware.Host{{ID: "h", CPU: 100, RAMMB: 1000, NetLatencyMS: 1, NetBandwidthMbps: 100}}}
	query := &stream.Query{Ops: []*stream.Operator{
		{ID: "src", Type: stream.OpSource, EventRate: 100, FieldTypes: []stream.DataType{stream.TypeInt}},
		{ID: "sink", Type: stream.OpSink},
	}, Edges: []stream.Edge{{0, 1}}}
	for i := 0; i < n; i++ {
		bp := backpressured
		if i%2 == 0 {
			bp = !bp
		}
		c.Traces = append(c.Traces, &dataset.Trace{
			Query:   query,
			Cluster: host,
			Metrics: &sim.Metrics{
				ThroughputTPS: throughput,
				ProcLatencyMS: 10,
				E2ELatencyMS:  20,
				Success:       true,
				Backpressured: bp,
			},
		})
	}
	return c
}

func TestCompareOnRegression(t *testing.T) {
	c := fakeCorpus(10, 100, false)
	row, err := compareOn(constPredictor(100), constPredictor(50), c, core.MetricThroughput, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Get("costream_q50") != 1 {
		t.Errorf("perfect predictor Q50 = %v, want 1", row.Get("costream_q50"))
	}
	if row.Get("flatvec_q50") != 2 {
		t.Errorf("half predictor Q50 = %v, want 2", row.Get("flatvec_q50"))
	}
	if !row.Has("costream_q50") {
		t.Error("throughput row must be regression")
	}
}

func TestCompareOnClassificationBalances(t *testing.T) {
	c := fakeCorpus(10, 100, false) // alternating backpressure labels
	row, err := compareOn(constPredictor(1), constPredictor(0), c, core.MetricBackpressure, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Always-positive and always-negative predictors both score 50% on a
	// balanced set.
	if row.Get("costream_acc") != 0.5 || row.Get("flatvec_acc") != 0.5 {
		t.Errorf("accuracies = %v / %v, want 0.5 / 0.5", row.Get("costream_acc"), row.Get("flatvec_acc"))
	}
	if row.N != 10 {
		t.Errorf("balanced N = %d, want 10", row.N)
	}
}

func TestMetricRowFormats(t *testing.T) {
	reg := Row{Label: "throughput", N: 5, Values: []Value{
		{"costream_q50", 1.2}, {"costream_q95", 3.4}, {"flatvec_q50", 9.9}, {"flatvec_q95", 100}}}
	if s := metricLine(reg); !strings.Contains(s, "Q50") || !strings.Contains(s, "throughput") {
		t.Errorf("bad regression row format: %q", s)
	}
	cls := Row{Label: "success", N: 5, Values: []Value{{"costream_acc", 0.9}, {"flatvec_acc", 0.7}}}
	if s := metricLine(cls); !strings.Contains(s, "acc") {
		t.Errorf("bad classification row format: %q", s)
	}
}

func TestTableWriteText(t *testing.T) {
	tab := &Table{Title: "Demo", Rows: []Row{{Label: "a"}, {Label: "b"}}, line: func(r Row) string { return r.Label }}
	var buf bytes.Buffer
	tab.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "a\nb\n") {
		t.Errorf("unexpected rendering: %q", out)
	}

	t.Run("markdown", func(t *testing.T) {
		tab := &Table{Title: "Demo", Rows: []Row{{Label: "a"}, {Group: "g", Label: "b"}}, Notes: []string{"note"},
			line: func(r Row) string { return r.Label }}
		var buf bytes.Buffer
		tab.WriteMarkdown(&buf)
		if want := "## Demo\n\n```\na\ng:\n  b\nnote\n```\n\n"; buf.String() != want {
			t.Errorf("markdown = %q, want %q", buf.String(), want)
		}
	})
}

// goldenTables builds each of the 14 tables of the report from fixed
// values: NaNs, a negative Exp 2b overhead ("never"), a strategy with no
// searched query and group headings among them.
func goldenTables() []*Table {
	nan := math.NaN()
	reg := func(group, m string, c50, c95, f50, f95 float64, n int) Row {
		return Row{Group: group, Label: m, N: n, Values: []Value{
			{"costream_q50", c50}, {"costream_q95", c95}, {"flatvec_q50", f50}, {"flatvec_q95", f95}}}
	}
	cls := func(group, m string, co, fl float64, n int) Row {
		return Row{Group: group, Label: m, N: n, Values: []Value{{"costream_acc", co}, {"flatvec_acc", fl}}}
	}
	compared := func(groups ...string) []Row {
		var rows []Row
		for _, g := range groups {
			rows = append(rows,
				reg(g, "throughput", 1.51, 8.13, 3.67, 48.49, 27),
				reg(g, "proc-latency", nan, 60.28, 2.64, 1248.1, 27),
				reg(g, "e2e-latency", 2.64, 41.06, 2.55, 51.82, 27),
				cls(g, "backpressure", 0.75, 0.75, 8),
				cls(g, "success", 2.0/3, 0.5, 6))
		}
		return rows
	}
	var extrapolated []Row
	for _, g := range []string{"RAM towards stronger resources", "Latency towards weaker resources"} {
		extrapolated = append(extrapolated,
			Row{Group: g, Label: "throughput", N: 46, Values: []Value{{"costream_q50", 1.2}, {"costream_q95", 3.4}}},
			Row{Group: g, Label: "e2e-latency", N: 40, Values: []Value{{"costream_q50", nan}, {"costream_q95", 123456.78}}},
			Row{Group: g, Label: "success", N: 8, Values: []Value{{"costream_acc", 0.875}}})
	}
	bucket := func(label string, n int, t, lp, le, ro, s float64, extra ...Value) Row {
		return Row{Label: label, N: n, Values: append([]Value{{"throughput_q50", t}, {"proc_latency_q50", lp},
			{"e2e_latency_q50", le}, {"backpressure_acc", ro}, {"success_acc", s}}, extra...)}
	}
	pair := func(label string, n int, a, b string, va, vb float64) Row {
		return Row{Label: label, N: n, Values: []Value{{a, va}, {b, vb}}}
	}
	monitoring := func(rate, sel, slowdown, overhead float64) Row {
		return Row{N: 1, Values: []Value{{"event_rate", rate}, {"selectivity", sel}, {"slowdown", slowdown}, {"overhead_s", overhead}}}
	}
	strategy := func(label string, n int, speedup, predicted, examined float64) Row {
		return Row{Label: label, N: n, Values: []Value{
			{"speedup_p50", speedup}, {"pred_lp_p50_ms", predicted}, {"mean_examined", examined}, {"budget", 48}}}
	}
	finetune := func(label string, b50, b95, a50, a95 float64) Row {
		return Row{Label: label, N: 30, Values: []Value{{"before_q50", b50}, {"after_q50", a50}, {"before_q95", b95}, {"after_q95", a95}}}
	}
	return []*Table{
		exp1Table(compared("")),
		exp1HardwareTable([]Row{
			bucket("cpu", 3, 1.66, 2.76, 10.84, 0, 2.0/3, Value{"upper_edge", 200}),
			bucket("bandwidth", 1, nan, nan, nan, 1, 1, Value{"upper_edge", 400}),
			bucket("ram", 2, 6.9, 39.69, 108.97, 0.5, 0.5, Value{"upper_edge", 40000}),
		}),
		exp1QueryTypesTable([]Row{
			bucket("Linear", 40, 1.3, 3.37, 4.59, 0.7, 0.975),
			bucket("3-Way-Join+Agg", 40, nan, 1.86, 2.33, 0.95, 0.7),
		}),
		exp2aTable([]Row{
			pair("Linear", 12, "costream_speedup_p50", "flatvec_speedup_p50", 219.78, 46.2),
			pair("2-Way-Join", 12, "costream_speedup_p50", "flatvec_speedup_p50", nan, 1.12),
		}),
		exp2bTable([]Row{
			monitoring(100, 0.1, 32.74, 77),
			monitoring(100, 0.5, 2363.01, -1),
			monitoring(6400, 1, 0.05, 0),
			monitoring(800, 0.25, nan, 123.4),
			monitoring(3200, 0.75, 12.5, -1),
		}),
		exp2cTable(48, []Row{
			strategy("random", 24, 1.01, 1234.5, 16),
			strategy("exhaustive", 0, 0, 0, 0),
			strategy("beam", 24, nan, 12.34, 47.9),
		}),
		exp3Table(compared("")),
		exp4Table(extrapolated),
		exp5aTable(compared("2-filter chain", "4-filter chain")),
		exp5bTable(60, []Row{
			finetune("2-filter chain", 1.5, 5.11, 1.49, 7.7),
			finetune("3-filter chain", nan, 12, 2, 13),
		}),
		exp6Table(compared("Advertisement", "Smart Grid (local)")),
		exp7aTable([]Row{
			pair("query nodes only", 20, "q50", "q95", 3.1, 40.2),
			pair("full featurization", 20, "q50", "q95", nan, 12),
		}),
		exp7bTable([]Row{
			pair("e2e-latency ours", 20, "q50", "q95", 2.1, 30),
			pair("e2e-latency traditional", 20, "q50", "q95", 2.5, 35),
			pair("proc-latency ours", 20, "q50", "q95", nan, 1e4),
		}),
		fig1Table([]Row{
			pair("Seen queries", 27, "costream_q50", "flatvec_q50", 1.4, 13),
			pair("Unseen benchmark", 54, "costream_q50", "flatvec_q50", nan, 2.3),
		}),
	}
}

// TestTablesRenderGolden pins both views of every table byte for byte.
// testdata/tables.txt and tables.md were rendered from the same values by
// the per-result Table() methods and cmd/costream-expts' Markdown writer
// that these views replace.
func TestTablesRenderGolden(t *testing.T) {
	var txt, md bytes.Buffer
	for _, tab := range goldenTables() {
		tab.WriteText(&txt)
		tab.WriteMarkdown(&md)
	}
	for _, c := range []struct {
		file string
		got  []byte
	}{{"testdata/tables.txt", txt.Bytes()}, {"testdata/tables.md", md.Bytes()}} {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", c.file, c.got, want)
		}
	}
}

func TestBucketValuesFailOnEvaluationError(t *testing.T) {
	boom := errors.New("boom")
	failing := placement.PredictorFunc(func(*stream.Analysis, hardware.Checked, sim.Placement) (placement.PredCosts, error) {
		return placement.PredCosts{}, boom
	})
	pred := func(p placement.Predictor) func(core.Metric) (placement.Predictor, error) {
		return func(core.Metric) (placement.Predictor, error) { return p, nil }
	}
	_, err := bucketValues(pred(failing), "cpu <=200", fakeCorpus(4, 100, false).Traces)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "cpu <=200") {
		t.Fatalf("err = %v, want boom naming the bucket", err)
	}

	// A bucket without a successful trace has no q-error to take: its
	// regression values read NaN and its accuracies are still scored.
	failed := fakeCorpus(4, 100, false)
	for _, tr := range failed.Traces {
		tr.Metrics.Success = false
	}
	vals, err := bucketValues(pred(constPredictor(0)), "ram <=4000", failed.Traces)
	if err != nil {
		t.Fatal(err)
	}
	row := Row{Values: vals}
	for _, name := range []string{"throughput_q50", "proc_latency_q50", "e2e_latency_q50"} {
		if !math.IsNaN(row.Get(name)) {
			t.Errorf("%s = %v, want NaN", name, row.Get(name))
		}
	}
	if row.Get("success_acc") != 1 {
		t.Errorf("success_acc = %v, want 1", row.Get("success_acc"))
	}
}

func TestFig1MissingRowFails(t *testing.T) {
	ok := exp1Table([]Row{e2eRow("", 1.4, 13)})
	grouped := exp5aTable([]Row{e2eRow("2-filter chain", 1.7, 260)})
	for _, c := range []struct {
		name           string
		e1, e3, e5, e6 *Table
		want           string
	}{
		{"empty", ok, exp3Table(nil), grouped, grouped, "[Exp 3 / Table IV]"},
		{"other metric", ok, ok, grouped, exp6Table([]Row{{Label: "throughput"}}), "[Exp 6 / Table VI-B]"},
		{"one group", ok, ok, exp5aTable(append(grouped.Rows, Row{Group: "3-filter chain", Label: "success"})), ok,
			"[Exp 5a / Table VI-A] Unseen query patterns (filter chains) / 3-filter chain"},
	} {
		_, err := Fig1Summary(c.e1, c.e3, c.e5, c.e6)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestScaledFloors(t *testing.T) {
	s := NewSuite(0.0001)
	if got := s.scaled(2400, 300); got != 300 {
		t.Errorf("scaled floor = %d, want 300", got)
	}
	s2 := NewSuite(2)
	if got := s2.scaled(100, 40); got != 200 {
		t.Errorf("scaled 2x = %d, want 200", got)
	}
	if NewSuite(-1).Scale != 1 {
		t.Error("non-positive scale must default to 1")
	}
}
