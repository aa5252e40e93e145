package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"costream/internal/nn"
	"costream/internal/obs"
	"costream/internal/obs/obstest"
	"costream/internal/sim"
)

// TestMetricsEndpointExposition is the /metrics acceptance check: after
// real traffic across the predict and optimize paths, the exposition
// parses as valid Prometheus text and covers the serve, inference and
// search metric families.
func TestMetricsEndpointExposition(t *testing.T) {
	// The default registry is shared process-wide on purpose: the search
	// families recorded by internal/placement must appear on the same
	// scrape as the server's own series.
	s := newTestServer(t, Config{Registry: obs.Default()})
	q, c := testQuery(t), testCluster()

	body := PredictRequest{Query: q, Cluster: c, Placement: sim.Placement{0, 1, 2}}
	if w := doJSON(t, s, http.MethodPost, "/v1/predict", body); w.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", w.Code, w.Body)
	}
	// Second identical request exercises the cache-hit counter.
	doJSON(t, s, http.MethodPost, "/v1/predict", body)
	if w := doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{Query: q, Cluster: c, Candidates: 8}); w.Code != http.StatusOK {
		t.Fatalf("optimize status %d: %s", w.Code, w.Body)
	}

	w := doJSON(t, s, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	text := w.Body.Bytes()
	if err := obstest.ValidateExposition(text); err != nil {
		t.Fatalf("invalid Prometheus exposition: %v\n%s", err, text)
	}
	for _, family := range []string{
		"costream_http_requests_total",
		"costream_http_errors_total",
		"costream_http_request_seconds",
		"costream_http_stage_seconds",
		"costream_http_rejected_total",
		"costream_serve_cache_ops_total",
		"costream_serve_cache_entries",
		"costream_serve_in_flight",
		"costream_search_rounds_total",
		"costream_search_candidates_total",
		"costream_search_runs_total",
	} {
		if !strings.Contains(string(text), family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
	if !strings.Contains(string(text), `costream_http_requests_total{route="predict"} 2`) {
		t.Errorf("per-route predict counter not at 2:\n%s", text)
	}
	buildInfo := fmt.Sprintf(`costream_build_info{go_version=%q,goarch=%q,affine_kernel=%q} 1`,
		runtime.Version(), runtime.GOARCH, nn.ForwardKernel())
	if !strings.Contains(string(text), buildInfo+"\n") {
		t.Errorf("exposition lacks %s:\n%s", buildInfo, text)
	}
}

// TestStageHistograms checks the span stages land in
// costream_http_stage_seconds: a miss records every predict stage, a hit
// only the two it runs, and optimize its three.
func TestStageHistograms(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()
	body := PredictRequest{Query: q, Cluster: c, Placement: sim.Placement{0, 1, 2}}
	for _, want := range []string{"miss", "hit"} {
		if w := doJSON(t, s, http.MethodPost, "/v1/predict", body); w.Header().Get("X-Costream-Cache") != want {
			t.Fatalf("cache header %q, want %s", w.Header().Get("X-Costream-Cache"), want)
		}
	}
	postOptimize(t, s, OptimizeRequest{Query: q, Cluster: c, Candidates: 8})
	want := map[stageKey]int64{
		{"predict", "read"}: 2, {"predict", "cache"}: 2,
		{"predict", "decode"}: 1, {"predict", "score"}: 1, {"predict", "encode"}: 1,
		{"optimize", "decode"}: 1, {"optimize", "search"}: 1, {"optimize", "encode"}: 1,
	}
	if len(s.met.stages) != len(want) {
		t.Errorf("%d stage series registered, want %d", len(s.met.stages), len(want))
	}
	for key, n := range want {
		if got := s.met.stages[key].Count(); got != n {
			t.Errorf("stage %v recorded %d times, want %d", key, got, n)
		}
	}
	text := doJSON(t, s, http.MethodGet, "/metrics", nil).Body.String()
	if !strings.Contains(text, `costream_http_stage_seconds_count{route="predict",stage="cache"} 2`) {
		t.Errorf("exposition lacks the predict cache stage count:\n%s", text)
	}
}

// flushRecorder notes whether Flush reached it.
type flushRecorder struct {
	http.ResponseWriter
	flushed bool
}

func (f *flushRecorder) Flush() { f.flushed = true }

// TestRouteWriterUnwraps: the writer route() hands to handlers must let
// http.ResponseController reach the connection's writer.
func TestRouteWriterUnwraps(t *testing.T) {
	s := newTestServer(t, Config{})
	var flushErr error
	h := s.route("example", func(w http.ResponseWriter, r *http.Request) {
		flushErr = http.NewResponseController(w).Flush()
	})
	under := &flushRecorder{ResponseWriter: httptest.NewRecorder()}
	h(under, httptest.NewRequest(http.MethodGet, "/v1/example", nil))
	if flushErr != nil || !under.flushed {
		t.Errorf("Flush through route(): err %v, reached the underlying writer: %v", flushErr, under.flushed)
	}
}

// postOptimize POSTs an optimize request and decodes the response.
func postOptimize(t *testing.T, s *Server, req OptimizeRequest) OptimizeResponse {
	t.Helper()
	w := doJSON(t, s, http.MethodPost, "/v1/optimize", req)
	if w.Code != http.StatusOK {
		t.Fatalf("optimize status %d: %s", w.Code, w.Body)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPredictTraceHeader checks every predict response carries the
// request's span ID.
func TestPredictTraceHeader(t *testing.T) {
	s := newTestServer(t, Config{})
	body := PredictRequest{Query: testQuery(t), Cluster: testCluster(), Placement: sim.Placement{0, 1, 2}}
	w := doJSON(t, s, http.MethodPost, "/v1/predict", body)
	id := w.Header().Get("X-Costream-Trace")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("trace header %q, want 16 hex digits", id)
	}
	w2 := doJSON(t, s, http.MethodPost, "/v1/predict", body)
	if id2 := w2.Header().Get("X-Costream-Trace"); id2 == id {
		t.Errorf("two requests share trace ID %s", id)
	}
}

// TestOptimizeDebugStanza checks the opt-in per-round telemetry in the
// optimize response.
func TestOptimizeDebugStanza(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()

	plain := postOptimize(t, s, OptimizeRequest{Query: q, Cluster: c, Candidates: 8})
	if plain.Debug != nil {
		t.Fatalf("debug stanza present without opting in: %+v", plain.Debug)
	}

	dbg := postOptimize(t, s, OptimizeRequest{Query: q, Cluster: c, Candidates: 8, Debug: true})
	if dbg.Debug == nil {
		t.Fatal("debug stanza missing")
	}
	if len(dbg.Debug.Rounds) != dbg.Rounds {
		t.Errorf("%d debug rounds, want %d", len(dbg.Debug.Rounds), dbg.Rounds)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(dbg.Debug.TraceID) {
		t.Errorf("debug trace ID %q", dbg.Debug.TraceID)
	}
	fresh := 0
	for _, rs := range dbg.Debug.Rounds {
		fresh += rs.Fresh
	}
	if fresh != dbg.Examined {
		t.Errorf("debug fresh sum %d != examined %d", fresh, dbg.Examined)
	}
	// Telemetry must not change the selection.
	if plain.Index != dbg.Index || plain.Costs != dbg.Costs {
		t.Errorf("debug changed selection: %d/%v vs %d/%v", plain.Index, plain.Costs, dbg.Index, dbg.Costs)
	}
}

// TestSaturationReturns503 checks the admission path: when the in-flight
// semaphore stays full past the queue timeout, requests are rejected
// with 503 + Retry-After instead of queueing without bound, and the
// rejection is counted. A /v1/predict miss takes the same path as a
// /v1/predict-batch.
func TestSaturationReturns503(t *testing.T) {
	pred := &fakePred{delay: 300 * time.Millisecond}
	s := newTestServer(t, Config{
		Predictor:   pred,
		MaxInFlight: 1,
		CacheSize:   -1,
	})
	s.queueTimeout = 20 * time.Millisecond
	q, c := testQuery(t), testCluster()
	batch := PredictBatchRequest{Query: q, Cluster: c, Placements: []sim.Placement{{0, 1, 2}}}

	var wg sync.WaitGroup
	codes := make([]int, 2)
	retryAfter := make([]string, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := doJSON(t, s, http.MethodPost, "/v1/predict-batch", batch)
			codes[i] = w.Code
			retryAfter[i] = w.Header().Get("Retry-After")
		}(i)
		// Stagger so the first request holds the only slot.
		time.Sleep(50 * time.Millisecond)
	}
	wg.Wait()

	if codes[0] != http.StatusOK {
		t.Errorf("first request status %d, want 200", codes[0])
	}
	if codes[1] != http.StatusServiceUnavailable {
		t.Fatalf("second request status %d, want 503", codes[1])
	}
	if retryAfter[1] == "" {
		t.Error("503 response missing Retry-After header")
	}
	if got := s.met.rejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	if got := sample(t, scrape(t, s), "costream_http_rejected_total"); got != 1 {
		t.Errorf("/metrics rejected = %v, want 1", got)
	}

	// A /v1/predict miss while the only slot is held is rejected the same
	// way, before it reaches the predictor.
	if err := s.acquire(); err != nil {
		t.Fatal(err)
	}
	calls := pred.batchCalls.Load()
	w := doJSON(t, s, http.MethodPost, "/v1/predict", PredictRequest{Query: q, Cluster: c, Placement: sim.Placement{0, 0, 1}})
	s.release()
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict status %d, want 503: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("predict 503 missing Retry-After header")
	}
	if got := pred.batchCalls.Load() - calls; got != 0 {
		t.Errorf("saturated predict scored %d tiles, want 0", got)
	}
	if got := s.met.rejected.Value(); got != 2 {
		t.Errorf("rejected counter = %d, want 2", got)
	}
}

// scrape returns the server's /metrics exposition.
func scrape(t testing.TB, s *Server) string {
	t.Helper()
	w := doJSON(t, s, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	return w.Body.String()
}

// sample returns the value of the exposition sample named series, as
// exposed (name, then its {labels} if any), failing the test if it is
// absent.
func sample(t testing.TB, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no sample %s", series)
	return 0
}

// TestStatsRouteGone: /metrics is the only stats surface; the JSON
// rendering of it that /stats once served is not routed.
func TestStatsRouteGone(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := doJSON(t, s, http.MethodGet, "/stats", nil); w.Code != http.StatusNotFound {
		t.Errorf("GET /stats answered %d, want 404", w.Code)
	}
	if strings.Contains(scrape(t, s), `route="stats"`) {
		t.Error("/metrics still carries a stats route series")
	}
}
