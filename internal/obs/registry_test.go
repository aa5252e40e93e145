package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests", "route", "predict")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create: same (name, labels) returns the same instrument.
	if again := r.Counter("test_requests_total", "", "route", "predict"); again != c {
		t.Fatal("same name+labels returned a different counter")
	}
	if other := r.Counter("test_requests_total", "", "route", "optimize"); other == c {
		t.Fatal("different labels returned the same counter")
	}

	g := r.Gauge("test_inflight", "in-flight work")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestFuncMetricsReplaceOnReregister(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_cache_entries", "", func() float64 { return 1 })
	r.GaugeFunc("test_cache_entries", "", func() float64 { return 42 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test_cache_entries 42") {
		t.Fatalf("re-registered GaugeFunc not live:\n%s", buf.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic registering one name as two kinds")
		}
	}()
	r.Gauge("test_x_total", "")
}

func TestExpositionIsValidPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "total requests", "route", "predict").Add(7)
	r.Counter("test_requests_total", "total requests", "route", "optimize").Add(2)
	r.Gauge("test_inflight", "current in-flight").Set(1)
	r.GaugeFunc("test_capacity", "configured capacity", func() float64 { return 4096 })
	h := r.Histogram("test_latency_seconds", "request latency", 1e-9, "route", "predict")
	for _, v := range []int64{0, 1, 999, 1023, 1024, 1 << 20, 1 << 30} {
		h.Record(v)
	}
	// A labeled value with characters needing escapes.
	r.Counter("test_escapes_total", "", "msg", "a\"b\\c\nd").Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		`test_requests_total{route="predict"} 7`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{route="predict",le="+Inf"} 7`,
		`test_latency_seconds_count{route="predict"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

func TestValidateExpositionCatchesBadOutput(t *testing.T) {
	cases := map[string]string{
		"no TYPE":          "test_a_total 1\n",
		"dup series":       "# TYPE test_a_total counter\ntest_a_total 1\ntest_a_total 2\n",
		"bad value":        "# TYPE test_a_total counter\ntest_a_total one\n",
		"no inf bucket":    "# TYPE test_h histogram\ntest_h_bucket{le=\"1\"} 1\ntest_h_sum 1\ntest_h_count 1\n",
		"non-cumulative":   "# TYPE test_h histogram\ntest_h_bucket{le=\"1\"} 5\ntest_h_bucket{le=\"2\"} 3\ntest_h_bucket{le=\"+Inf\"} 5\ntest_h_sum 1\ntest_h_count 5\n",
		"count mismatch":   "# TYPE test_h histogram\ntest_h_bucket{le=\"+Inf\"} 5\ntest_h_sum 1\ntest_h_count 4\n",
		"negative counter": "# TYPE test_a_total counter\ntest_a_total -1\n",
	}
	for name, data := range cases {
		if err := ValidateExposition([]byte(data)); err == nil {
			t.Errorf("%s: invalid exposition accepted:\n%s", name, data)
		}
	}
}

// TestWriteJSONMatchesPrometheus: the JSON view carries every sample of
// the exposition but the histogram buckets — counters, gauges, the Func
// kinds, labelled and unlabelled histograms' _count and _sum — each equal
// to its exposition value, and a NaN gauge as a null that still decodes.
func TestWriteJSONMatchesPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "", "route", "predict").Add(7)
	r.Counter("test_requests_total", "", "route", "optimize").Add(2)
	r.Counter("test_plain_total", "").Inc()
	r.Counter("test_escapes_total", "", "msg", `a"b`, "k", "v").Add(3)
	r.Gauge("test_ratio", "").Set(0.125)
	r.Gauge("test_nan", "").Set(math.NaN())
	r.CounterFunc("test_hits_total", "", func() float64 { return 41 }, "outcome", "hit")
	r.GaugeFunc("test_capacity", "", func() float64 { return 4096 })
	h := r.Histogram("test_latency_seconds", "", 1e-9, "route", "predict")
	for _, v := range []int64{1, 999, 1 << 20, 3 << 30} {
		h.Record(v)
	}
	r.Histogram("test_batch_size", "", 1).Record(5)

	var prom, doc bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	var view map[string]map[string]any
	if err := json.Unmarshal(doc.Bytes(), &view); err != nil {
		t.Fatalf("JSON view does not decode: %v\n%s", err, doc.String())
	}
	if v, ok := view["test_nan"][""]; !ok || v != nil {
		t.Errorf("NaN gauge renders %v (present: %v), want null", v, ok)
	}

	types := map[string]string{}
	samples := 0
	for _, line := range strings.Split(prom.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, want, err := parseSample(line)
		if err != nil {
			t.Fatal(err)
		}
		family, field := name, ""
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && types[base] == "histogram" {
			continue
		}
		for _, suffix := range []string{"_count", "_sum"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
				family, field = base, suffix[1:]
			}
		}
		var key []string
		if labels != "" {
			for _, pair := range splitLabelPairs(labels[1 : len(labels)-1]) {
				k, quoted, _ := strings.Cut(pair, "=")
				v, err := strconv.Unquote(quoted)
				if err != nil {
					t.Fatal(err)
				}
				key = append(key, k+"="+v)
			}
		}
		got, ok := view[family][strings.Join(key, ",")]
		if field != "" {
			hist, _ := got.(map[string]any)
			got, ok = hist[field]
		}
		if math.IsNaN(want) {
			if !ok || got != nil {
				t.Errorf("%s: JSON %v, want null", line, got)
			}
		} else if !ok || got != want {
			t.Errorf("%s: JSON %v (present: %v), want %v", line, got, ok, want)
		}
		samples++
	}
	// 8 counter and gauge series, 2 values for each of the 2 histograms.
	if samples != 12 {
		t.Errorf("compared %d samples, want 12:\n%s", samples, prom.String())
	}
	series := 0
	for _, fam := range view {
		series += len(fam)
	}
	if series != 10 {
		t.Errorf("JSON view holds %d series, want 10:\n%s", series, doc.String())
	}
}

// TestRegistryConcurrentScrape hammers instruments from many goroutines
// while scraping; it is the registry's data-race check (runs under
// -race in CI).
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("test_races_total", "", "worker", string(rune('a'+g)))
			h := r.Histogram("test_race_seconds", "", 1e-9)
			ga := r.Gauge("test_race_gauge", "")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Record(int64(i % (1 << 20)))
				ga.Set(float64(i))
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(buf.Bytes()); err != nil {
			t.Fatalf("scrape %d invalid under concurrency: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestCounterZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hot_total", "")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %.1f/op, want 0", allocs)
	}
}
