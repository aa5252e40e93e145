package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"costream/internal/obs/obstest"
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
	if err := obstest.ValidateExposition(buf.Bytes()); err != nil {
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
		if err := obstest.ValidateExposition([]byte(data)); err == nil {
			t.Errorf("%s: invalid exposition accepted:\n%s", name, data)
		}
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
		if err := obstest.ValidateExposition(buf.Bytes()); err != nil {
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
