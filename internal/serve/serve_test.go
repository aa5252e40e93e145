package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/obs"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// fakePred is a deterministic predictor: costs are a pure function of
// the placement, so handler tests can verify exact outputs without
// training a model. Its sessions score a whole batch as one tile, after
// delay, and count the tiles scored.
type fakePred struct {
	delay      time.Duration
	err        error
	batchCalls atomic.Int64
}

func fakeCosts(p sim.Placement) placement.PredCosts {
	s := 0.0
	for i, h := range p {
		s += float64((i + 1) * (h + 1))
	}
	return placement.PredCosts{
		ThroughputTPS: 1000 + s,
		ProcLatencyMS: 10 + s,
		E2ELatencyMS:  20 + s,
		Success:       true,
	}
}

func (f *fakePred) NewScoreSession(q *stream.Analysis, c hardware.Checked) (placement.TileScorer, error) {
	return fakeSession{f}, nil
}

type fakeSession struct{ f *fakePred }

func (fakeSession) TileSize() int { return maxCandidates }

func (s fakeSession) ScoreTile(ps []sim.Placement, need placement.CostSet, out []placement.PredCosts) error {
	s.f.batchCalls.Add(1)
	if s.f.delay > 0 {
		time.Sleep(s.f.delay)
	}
	if s.f.err != nil {
		return s.f.err
	}
	for i, p := range ps {
		need.Copy(&out[i], fakeCosts(p))
	}
	return nil
}

func testQuery(t testing.TB) *stream.Query {
	t.Helper()
	b := stream.NewBuilder()
	src := b.AddSource(1000, []stream.DataType{stream.TypeInt, stream.TypeDouble})
	f := b.AddFilter(stream.FilterGT, stream.TypeInt, 0.5)
	sink := b.AddSink()
	b.Chain(src, f, sink)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func testCluster() *hardware.Cluster {
	return &hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "edge", CPU: 100, RAMMB: 2000, NetLatencyMS: 40, NetBandwidthMbps: 100},
		{ID: "fog", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
		{ID: "cloud", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}}
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Predictor == nil {
		cfg.Predictor = &fakePred{}
	}
	// Isolate each test server's metrics: the process-wide default
	// registry would accumulate counts across tests that assert exact
	// values.
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doJSON(t testing.TB, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// postRaw POSTs body bytes as they are.
func postRaw(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

func TestPredictHandler(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()
	p := sim.Placement{0, 1, 2}
	w := doJSON(t, s, http.MethodPost, "/v1/predict", PredictRequest{Query: q, Cluster: c, Placement: p})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := fakeCosts(p)
	if resp.Costs != want {
		t.Errorf("costs %+v, want %+v", resp.Costs, want)
	}
	if got := w.Header().Get("X-Costream-Cache"); got != "miss" {
		t.Errorf("cache header %q, want miss", got)
	}
}

func TestPredictValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()
	cases := map[string]any{
		"missing query":     PredictRequest{Cluster: c, Placement: sim.Placement{0, 1, 2}},
		"missing cluster":   PredictRequest{Query: q, Placement: sim.Placement{0, 1, 2}},
		"short placement":   PredictRequest{Query: q, Cluster: c, Placement: sim.Placement{0}},
		"host out of range": PredictRequest{Query: q, Cluster: c, Placement: sim.Placement{0, 1, 9}},
	}
	for name, body := range cases {
		if w := doJSON(t, s, http.MethodPost, "/v1/predict", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, w.Code)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte("{not json")))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", w.Code)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte(`{"queryy":{}}`)))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", w.Code)
	}

	if w := doJSON(t, s, http.MethodGet, "/v1/predict", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d, want 405", w.Code)
	}
	if w := doJSON(t, s, http.MethodGet, "/nope", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", w.Code)
	}
}

func TestPredictErrorsAreUnprocessable(t *testing.T) {
	s := newTestServer(t, Config{Predictor: &fakePred{err: fmt.Errorf("boom")}})
	body := PredictRequest{Query: testQuery(t), Cluster: testCluster(), Placement: sim.Placement{0, 1, 2}}
	if w := doJSON(t, s, http.MethodPost, "/v1/predict", body); w.Code != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422", w.Code)
	}
}

// TestPredictNamesNonFiniteOutput: a model with a NaN weight used to be
// averaged into a NaN cost that the JSON encoder refused, answering a bare
// 500 "encoding response". The response must name the metric and member.
func TestPredictNamesNonFiniteOutput(t *testing.T) {
	feat := core.Featurizer{}
	gcfg := gnn.DefaultConfig(feat.FeatDims())
	gcfg.Hidden = 8
	net, err := gnn.New(gcfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := net.Params()
	readoutBias := params[len(params)-1]
	readoutBias[0] = math.NaN()
	pred := (&core.Ensemble{
		Metric: core.MetricThroughput,
		Models: []*core.CostModel{{Metric: core.MetricThroughput, Feat: feat, Net: net}},
	}).Predictor()
	s := newTestServer(t, Config{Predictor: pred})
	body := PredictRequest{Query: testQuery(t), Cluster: testCluster(), Placement: sim.Placement{0, 1, 2}}
	w := doJSON(t, s, http.MethodPost, "/v1/predict", body)
	want := "non-finite output for " + core.MetricThroughput.String() + ", member 0"
	if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), want) {
		t.Fatalf("status %d body %s, want 422 naming %q", w.Code, w.Body, want)
	}

	// /v1/optimize under the default objective never reads throughput in a
	// round, so the search runs; completing the chosen placement's costs
	// is what meets the poisoned ensemble. That is a 422 naming the metric
	// as well, never a reply with a throughput nobody predicted.
	w = doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{Query: testQuery(t), Cluster: testCluster(), Candidates: 8})
	if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), want) {
		t.Fatalf("optimize: status %d body %s, want 422 naming %q", w.Code, w.Body, want)
	}
}

// TestCacheHitEquivalence is the cache acceptance check: the cached
// response must be byte-identical to the cold-path response.
func TestCacheHitEquivalence(t *testing.T) {
	s := newTestServer(t, Config{})
	body := PredictRequest{Query: testQuery(t), Cluster: testCluster(), Placement: sim.Placement{0, 1, 2}}

	cold := doJSON(t, s, http.MethodPost, "/v1/predict", body)
	warm := doJSON(t, s, http.MethodPost, "/v1/predict", body)
	if cold.Code != http.StatusOK || warm.Code != http.StatusOK {
		t.Fatalf("status %d / %d", cold.Code, warm.Code)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Errorf("cached response differs from cold path:\ncold: %s\nwarm: %s", cold.Body, warm.Body)
	}
	if got := cold.Header().Get("X-Costream-Cache"); got != "miss" {
		t.Errorf("first request cache header %q, want miss", got)
	}
	if got := warm.Header().Get("X-Costream-Cache"); got != "hit" {
		t.Errorf("second request cache header %q, want hit", got)
	}
	hits, misses, _ := s.cache.counters()
	if hits != 1 || misses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
	}

	// The key is the request bytes, so a re-indented copy of the same
	// request is computed again — to the same answer — and cached on its
	// own: the price of probing the cache before any JSON work.
	compact, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"miss", "hit"} {
		w := postRaw(s, "/v1/predict", indented.Bytes())
		if got := w.Header().Get("X-Costream-Cache"); got != want {
			t.Errorf("re-indented request, send %d: cache header %q, want %q", i+1, got, want)
		}
		if !bytes.Equal(w.Body.Bytes(), cold.Body.Bytes()) {
			t.Errorf("re-indented request, send %d: body %s, want %s", i+1, w.Body, cold.Body)
		}
	}
	if n := s.cache.len(); n != 2 {
		t.Errorf("cache holds %d entries, want 2 (one per formatting)", n)
	}

	// A different placement is a different key.
	body.Placement = sim.Placement{0, 0, 1}
	if w := doJSON(t, s, http.MethodPost, "/v1/predict", body); w.Header().Get("X-Costream-Cache") != "miss" {
		t.Error("distinct placement served from cache")
	}
}

// TestErrorsAreNeverCached: only 200 responses are stored, so the same
// failing body sent twice fails twice and leaves the cache as it was.
func TestErrorsAreNeverCached(t *testing.T) {
	valid, err := json.Marshal(PredictRequest{Query: testQuery(t), Cluster: testCluster(), Placement: sim.Placement{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	failing := newTestServer(t, Config{Predictor: &fakePred{err: fmt.Errorf("boom")}})
	saturated := newTestServer(t, Config{MaxInFlight: 1})
	saturated.queueTimeout = time.Millisecond
	if err := saturated.acquire(); err != nil { // hold the only slot
		t.Fatal(err)
	}
	defer saturated.release()
	cases := []struct {
		name string
		s    *Server
		body []byte
		want int
	}{
		{"malformed", newTestServer(t, Config{}), []byte("{not json"), http.StatusBadRequest},
		{"invalid placement", newTestServer(t, Config{}), bytes.Replace(valid, []byte("[0,1,2]"), []byte("[0,1,9]"), 1), http.StatusBadRequest},
		{"predictor error", failing, valid, http.StatusUnprocessableEntity},
		{"saturated", saturated, valid, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		for send := 1; send <= 2; send++ {
			w := postRaw(tc.s, "/v1/predict", tc.body)
			if w.Code != tc.want {
				t.Errorf("%s, send %d: status %d, want %d: %s", tc.name, send, w.Code, tc.want, w.Body)
			}
			if got := w.Header().Get("X-Costream-Cache"); got != "" {
				t.Errorf("%s, send %d: error response carries cache header %q", tc.name, send, got)
			}
		}
		if n := tc.s.cache.len(); n != 0 {
			t.Errorf("%s: %d cache entries after two failed requests, want 0", tc.name, n)
		}
	}
}

// bareWriter is the least a ResponseWriter can be, so that
// TestPredictHitAllocations counts the server's allocations and not
// httptest's.
type bareWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *bareWriter) Header() http.Header  { return w.header }
func (w *bareWriter) WriteHeader(code int) { w.status = code }
func (w *bareWriter) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// TestPredictHitAllocations pins the server side of a cache hit —
// ServeHTTP down to the Write — at 5 heap objects: the body's
// http.MaxBytesReader, the trace ID and the three response header values.
func TestPredictHitAllocations(t *testing.T) {
	s := newTestServer(t, Config{})
	data := s.example
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	var body replayBody
	w := &bareWriter{header: make(http.Header)}
	send := func() {
		body.Reset(data)
		req.Body = &body
		s.ServeHTTP(w, req)
	}
	send()
	if w.status != http.StatusOK || w.header.Get("X-Costream-Cache") != "miss" {
		t.Fatalf("priming request: status %d, cache %q: %s", w.status, w.header.Get("X-Costream-Cache"), w.body)
	}
	filled := bytes.Clone(w.body)
	// The race detector makes sync.Pool drop items at random, so take the
	// cheapest of many single requests rather than an average.
	allocs := math.Inf(1)
	for range 50 {
		allocs = min(allocs, testing.AllocsPerRun(1, send))
	}
	if w.status != http.StatusOK || w.header.Get("X-Costream-Cache") != "hit" || !bytes.Equal(w.body, filled) {
		t.Fatalf("measured request: status %d, cache %q, body %s, want a hit equal to %s",
			w.status, w.header.Get("X-Costream-Cache"), w.body, filled)
	}
	t.Logf("%.1f allocations per hit", allocs)
	if allocs > 5 {
		t.Errorf("%.1f allocations per cache hit, want <= 5", allocs)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: -1})
	body := PredictRequest{Query: testQuery(t), Cluster: testCluster(), Placement: sim.Placement{0, 1, 2}}
	doJSON(t, s, http.MethodPost, "/v1/predict", body)
	if w := doJSON(t, s, http.MethodPost, "/v1/predict", body); w.Header().Get("X-Costream-Cache") != "miss" {
		t.Error("disabled cache returned a hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2)
	a, b, cc := newCacheKey([]byte("a")), newCacheKey([]byte("b")), newCacheKey([]byte("c"))
	c.add(a, []byte("body a"))
	c.add(b, []byte("body b"))
	if got, ok := c.get(a); !ok || string(got) != "body a" { // touch a -> b becomes LRU
		t.Fatalf("a: %q, %v", got, ok)
	}
	c.add(cc, []byte("body c"))
	if _, ok := c.get(b); ok {
		t.Error("LRU entry b not evicted")
	}
	if _, ok := c.get(a); !ok {
		t.Error("recently used entry a evicted")
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
	if _, _, evictions := c.counters(); evictions != 1 {
		t.Errorf("evictions %d, want 1", evictions)
	}
}

func TestPredictBatchHandler(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()
	ps := []sim.Placement{{0, 1, 2}, {0, 0, 1}, {1, 1, 2}}
	w := doJSON(t, s, http.MethodPost, "/v1/predict-batch", PredictBatchRequest{Query: q, Cluster: c, Placements: ps})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp PredictBatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Costs) != len(ps) {
		t.Fatalf("%d costs, want %d", len(resp.Costs), len(ps))
	}
	for i, p := range ps {
		if resp.Costs[i] != fakeCosts(p) {
			t.Errorf("batch %d: %+v", i, resp.Costs[i])
		}
	}
	if w := doJSON(t, s, http.MethodPost, "/v1/predict-batch",
		PredictBatchRequest{Query: q, Cluster: c}); w.Code != http.StatusBadRequest {
		t.Errorf("empty placements: status %d, want 400", w.Code)
	}
}

func seedPtr(v int64) *int64 { return &v }

func TestOptimizeHandler(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()
	w := doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{
		Query: q, Cluster: c, Candidates: 8, Objective: "min-processing-latency", Seed: seedPtr(3),
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if err := resp.Placement.Validate(q, c); err != nil {
		t.Errorf("returned placement invalid: %v", err)
	}
	if resp.Examined <= 0 {
		t.Errorf("examined %d", resp.Examined)
	}
	if resp.Costs != fakeCosts(resp.Placement) {
		t.Errorf("costs %+v do not match the returned placement", resp.Costs)
	}
	if resp.Strategy != "random" {
		t.Errorf("strategy %q, want default random", resp.Strategy)
	}
	if resp.Seed != 3 {
		t.Errorf("seed %d, want echoed 3", resp.Seed)
	}
	if bytes.Contains(w.Body.Bytes(), []byte(`"candidates"`)) {
		t.Errorf("reply carries a candidates field beside examined: %s", w.Body)
	}
	if resp.Index < 0 || resp.Index >= resp.Examined {
		t.Errorf("index %d out of range [0, %d)", resp.Index, resp.Examined)
	}
	if resp.Rounds <= 0 {
		t.Errorf("rounds %d, want positive", resp.Rounds)
	}

	// Determinism: same request, same answer.
	w2 := doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{
		Query: q, Cluster: c, Candidates: 8, Objective: "min-processing-latency", Seed: seedPtr(3),
	})
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("same optimize request produced different responses")
	}

	if w := doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{
		Query: q, Cluster: c, Objective: "make-it-fast",
	}); w.Code != http.StatusBadRequest {
		t.Errorf("bad objective: status %d, want 400", w.Code)
	}
}

// TestOptimizeObjectiveNames: /v1/optimize accepts every objective name
// placement.ParseObjective does, the CLI's short forms included, and a
// short form answers exactly what its long form does.
func TestOptimizeObjectiveNames(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()
	for long, short := range map[string]string{
		"min-e2e-latency":        "e2e",
		"max-throughput":         "throughput",
		"min-processing-latency": "latency",
	} {
		want := doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{Query: q, Cluster: c, Candidates: 8, Objective: long})
		got := doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{Query: q, Cluster: c, Candidates: 8, Objective: short})
		if want.Code != http.StatusOK || got.Code != http.StatusOK {
			t.Fatalf("%s / %s: status %d / %d: %s %s", long, short, want.Code, got.Code, want.Body, got.Body)
		}
		if !bytes.Equal(want.Body.Bytes(), got.Body.Bytes()) {
			t.Errorf("objective %q answered\n%s, %q answered\n%s", short, got.Body, long, want.Body)
		}
	}
}

// TestOptimizeStrategies drives each search strategy through the handler
// and checks the new response fields.
func TestOptimizeStrategies(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()
	for _, strat := range []string{"random", "exhaustive", "beam", "local-search"} {
		req := OptimizeRequest{
			Query: q, Cluster: c, Candidates: 16, Strategy: strat, Seed: seedPtr(5),
		}
		if strat == "beam" {
			req.BeamWidth = 3
		}
		w := doJSON(t, s, http.MethodPost, "/v1/optimize", req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", strat, w.Code, w.Body)
		}
		var resp OptimizeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Strategy != strat {
			t.Errorf("strategy %q, want %q", resp.Strategy, strat)
		}
		if err := resp.Placement.Validate(q, c); err != nil {
			t.Errorf("%s: invalid placement: %v", strat, err)
		}
		if resp.Examined <= 0 || resp.Examined > 16 {
			t.Errorf("%s: examined %d outside (0, 16]", strat, resp.Examined)
		}
	}

	if w := doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{
		Query: q, Cluster: c, Strategy: "quantum-annealing",
	}); w.Code != http.StatusBadRequest {
		t.Errorf("unknown strategy: status %d, want 400", w.Code)
	}
	if w := doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{
		Query: q, Cluster: c, Strategy: "random", BeamWidth: 4,
	}); w.Code != http.StatusBadRequest {
		t.Errorf("beam_width with non-beam strategy: status %d, want 400", w.Code)
	}
}

// TestOptimizeSeedHandling: an omitted seed selects the documented
// default, while an explicit zero seed is honored rather than rewritten.
func TestOptimizeSeedHandling(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()
	run := func(req OptimizeRequest) OptimizeResponse {
		t.Helper()
		w := doJSON(t, s, http.MethodPost, "/v1/optimize", req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var resp OptimizeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	omitted := run(OptimizeRequest{Query: q, Cluster: c, Candidates: 8})
	if omitted.Seed != DefaultOptimizeSeed {
		t.Errorf("omitted seed: effective %d, want default %d", omitted.Seed, DefaultOptimizeSeed)
	}
	zero := run(OptimizeRequest{Query: q, Cluster: c, Candidates: 8, Seed: seedPtr(0)})
	if zero.Seed != 0 {
		t.Errorf("explicit zero seed rewritten to %d", zero.Seed)
	}
	zero2 := run(OptimizeRequest{Query: q, Cluster: c, Candidates: 8, Seed: seedPtr(0)})
	if !jsonEqual(t, zero, zero2) {
		t.Error("zero-seed requests are not deterministic")
	}
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestRequestWorkLimits: a single request cannot buy unbounded
// enumeration or scoring work — oversized candidate counts are rejected
// before any allocation and before the in-flight semaphore, and so are
// negative budgets, which would otherwise run with no round limit or the
// default candidate count; the error names the field.
func TestRequestWorkLimits(t *testing.T) {
	s := newTestServer(t, Config{})
	q, c := testQuery(t), testCluster()
	if w := doJSON(t, s, http.MethodPost, "/v1/optimize", OptimizeRequest{
		Query: q, Cluster: c, Candidates: 2_000_000_000,
	}); w.Code != http.StatusBadRequest {
		t.Errorf("oversized optimize: status %d, want 400", w.Code)
	}
	for field, req := range map[string]OptimizeRequest{
		"candidates": {Query: q, Cluster: c, Candidates: -1},
		"rounds":     {Query: q, Cluster: c, Candidates: 8, Rounds: -3},
	} {
		w := doJSON(t, s, http.MethodPost, "/v1/optimize", req)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), field) {
			t.Errorf("negative %s: status %d, want 400 naming the field: %s", field, w.Code, w.Body)
		}
	}
	ps := make([]sim.Placement, maxCandidates+1)
	for i := range ps {
		ps[i] = sim.Placement{0, 1, 2}
	}
	if w := doJSON(t, s, http.MethodPost, "/v1/predict-batch", PredictBatchRequest{
		Query: q, Cluster: c, Placements: ps,
	}); w.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", w.Code)
	}
}

func TestExampleRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	w := doJSON(t, s, http.MethodGet, "/v1/example", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("example status %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(w.Body.Bytes()))
	w2 := httptest.NewRecorder()
	s.ServeHTTP(w2, req)
	if w2.Code != http.StatusOK {
		t.Fatalf("POSTing the example back failed: %d %s", w2.Code, w2.Body)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := newTestServer(t, Config{ModelInfo: map[string]string{"note": "test"}})
	w := doJSON(t, s, http.MethodGet, "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var h healthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}

	doJSON(t, s, http.MethodPost, "/v1/predict",
		PredictRequest{Query: testQuery(t), Cluster: testCluster(), Placement: sim.Placement{0, 1, 2}})
	text := scrape(t, s)
	for series, want := range map[string]float64{
		`costream_http_requests_total{route="predict"}`:  1,
		`costream_http_requests_total{route="healthz"}`:  1,
		`costream_serve_cache_ops_total{outcome="miss"}`: 1,
		"costream_serve_cache_capacity":                  DefaultCacheSize,
	} {
		if got := sample(t, text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if got := sample(t, text, "costream_serve_max_in_flight"); got <= 0 {
		t.Errorf("max in-flight %v", got)
	}
}

// TestConcurrentPredictRace hammers the full HTTP path from many
// goroutines (run with -race): every response must match the
// deterministic fake, and every request is counted once by the cache, as
// a hit or a miss.
func TestConcurrentPredictRace(t *testing.T) {
	s := newTestServer(t, Config{Predictor: &fakePred{delay: 2 * time.Millisecond}, CacheSize: 64, MaxInFlight: 4})
	q, c := testQuery(t), testCluster()

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := sim.Placement{i % 3, (i / 3) % 3, 2}
			w := doJSON(t, s, http.MethodPost, "/v1/predict", PredictRequest{Query: q, Cluster: c, Placement: p})
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", i, w.Code, w.Body)
				return
			}
			var resp PredictResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				errs <- err
				return
			}
			if want := fakeCosts(p); resp.Costs != want {
				errs <- fmt.Errorf("client %d: %+v != %+v", i, resp.Costs, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := s.met.requests["predict"].Value(); got != clients {
		t.Errorf("predict requests %d, want %d", got, clients)
	}
	hits, misses, _ := s.cache.counters()
	if got := misses + hits; got != clients {
		t.Errorf("cache misses(%d) + hits(%d) = %d, want %d", misses, hits, got, clients)
	}
}

// TestServeMatchesDirectPredictions checks the acceptance criterion
// end-to-end with a real trained model: HTTP responses carry exactly the
// library's predictions (float64s survive the JSON round trip bit-for-bit).
func TestServeMatchesDirectPredictions(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	simCfg := sim.DefaultConfig()
	simCfg.DurationS, simCfg.WarmupS = 30, 5
	corpus, err := dataset.Build(dataset.BuildConfig{
		N: 100, Seed: 11, Gen: workload.DefaultConfig(11), Sim: simCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, val, _ := corpus.Split(0.7, 0.1, 11)
	cfg := core.DefaultTrainConfig(11)
	cfg.Epochs, cfg.Patience, cfg.Hidden = 1, 0, 8
	pred, err := core.TrainPredictor(train, val, core.PredictorConfig{Train: cfg, EnsembleSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Predictor: pred})

	for i, tr := range corpus.Traces[:10] {
		want, err := placement.PredictOne(pred, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		w := doJSON(t, s, http.MethodPost, "/v1/predict",
			PredictRequest{Query: tr.Query, Cluster: tr.Cluster, Placement: tr.Placement})
		if w.Code != http.StatusOK {
			t.Fatalf("trace %d: status %d: %s", i, w.Code, w.Body)
		}
		var resp PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Costs != want {
			t.Errorf("trace %d: served %+v != direct %+v", i, resp.Costs, want)
		}
	}
}

func TestNewRequiresPredictor(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil predictor accepted")
	}
}
