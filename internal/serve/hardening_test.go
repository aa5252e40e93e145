package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// TestOversizedBodyReturns413 enforces the request body cap: a body
// past Config.MaxRequestBytes is answered 413, not 400, and the error
// names the limit.
func TestOversizedBodyReturns413(t *testing.T) {
	s := newTestServer(t, Config{MaxRequestBytes: 1 << 10})
	big := bytes.NewReader(append([]byte(`{"query": "`), bytes.Repeat([]byte("x"), 4<<10)...))
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", big)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "1024") {
		t.Errorf("error does not name the limit: %s", w.Body)
	}

	// A request under the cap on the same server still works.
	q, c := testQuery(t), testCluster()
	if w := doJSON(t, s, http.MethodPost, "/v1/predict", PredictRequest{Query: q, Cluster: c, Placement: sim.Placement{0, 1, 2}}); w.Code != http.StatusOK {
		t.Fatalf("in-bounds request after 413: status %d body %s", w.Code, w.Body)
	}
}

// TestBodyCapAppliesToAllPostRoutes: every decoding route shares the cap.
func TestBodyCapAppliesToAllPostRoutes(t *testing.T) {
	s := newTestServer(t, Config{MaxRequestBytes: 512})
	for _, path := range []string{"/v1/predict", "/v1/predict-batch", "/v1/optimize"} {
		// A syntactically valid prefix so the decoder reads past the cap
		// instead of erroring on byte two.
		body := bytes.NewReader(append([]byte(`{"objective": "`), bytes.Repeat([]byte("x"), 2<<10)...))
		req := httptest.NewRequest(http.MethodPost, path, body)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, w.Code)
		}
	}
}

// TestOversizedBodyNotPooled: a /v1/predict body past the cap is still
// 413 although the handler now reads it whole, and the buffer that grew
// reading it is dropped instead of being pinned by the pool.
func TestOversizedBodyNotPooled(t *testing.T) {
	const limit = 4 * maxPooledBody
	s := newTestServer(t, Config{MaxRequestBytes: limit})
	big := append([]byte(`{"query": "`), bytes.Repeat([]byte("x"), 2*limit)...)
	if w := postRaw(s, "/v1/predict", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %s", w.Code, w.Body)
	}
	if s.cache.len() != 0 {
		t.Error("a 413 response was cached")
	}
	// Whatever the pool hands out next — a kept buffer or a fresh one —
	// must not be the one that grew.
	for i := 0; i < 8; i++ {
		if buf := bodyPool.Get().(*bytes.Buffer); buf.Cap() > maxPooledBody {
			t.Fatalf("pool retained a %d-byte buffer, cap is %d", buf.Cap(), maxPooledBody)
		}
	}
}

// TestTrailingDataRejected: every POST route takes exactly one JSON
// document; anything but whitespace after it is a 400, not ignored.
func TestTrailingDataRejected(t *testing.T) {
	s := newControlTestServer(t, nil)
	q, c := testQuery(t), testCluster()
	p := sim.Placement{0, 1, 2}
	// The host routes name a host no deployment uses, so the order the
	// routes run in does not matter.
	bodies := map[string]any{
		"/v1/predict":        PredictRequest{Query: q, Cluster: c, Placement: p},
		"/v1/predict-batch":  PredictBatchRequest{Query: q, Cluster: c, Placements: []sim.Placement{p}},
		"/v1/optimize":       OptimizeRequest{Query: q, Cluster: c, Candidates: 4},
		"/v1/deployments":    DeployRequest{Query: q, Cluster: c, Placement: p},
		"/v1/hosts/cordon":   HostRequest{Host: "spare"},
		"/v1/hosts/uncordon": HostRequest{Host: "spare"},
		"/v1/hosts/drain":    HostRequest{Host: "spare"},
	}
	for path, body := range bodies {
		doc, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []string{"garbage", "{}", ` {"query":null}`, "]", "\n\t 1"} {
			w := postRaw(s, path, append(bytes.Clone(doc), tail...))
			if w.Code != http.StatusBadRequest {
				t.Errorf("%s with trailing %q: status %d, want 400: %s", path, tail, w.Code, w.Body)
			}
		}
		if w := postRaw(s, path, append(bytes.Clone(doc), " \r\n\t\n"...)); w.Code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d, want 200: %s", path, w.Code, w.Body)
		}
	}
}

// nullHost returns a request body with null prepended to its
// cluster's hosts, and nullOp one with null appended to its query's
// operators.
func nullHost(body []byte) []byte {
	return bytes.Replace(body, []byte(`"Hosts":[`), []byte(`"Hosts":[null,`), 1)
}

func nullOp(body []byte) []byte {
	return bytes.Replace(body, []byte(`}],"Edges"`), []byte(`},null],"Edges"`), 1)
}

// TestNullHostOrOperatorRejected: a null host or operator inside a
// request's cluster or query is a 400 naming its index on every route
// that takes a query and a cluster, not a panic that drops the
// connection.
func TestNullHostOrOperatorRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	var ex PredictRequest
	if err := json.Unmarshal(s.example, &ex); err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{"/v1/predict": s.example}
	for path, req := range map[string]any{
		"/v1/predict-batch": PredictBatchRequest{Query: ex.Query, Cluster: ex.Cluster, Placements: []sim.Placement{ex.Placement}},
		"/v1/optimize":      OptimizeRequest{Query: ex.Query, Cluster: ex.Cluster, Candidates: 4},
		"/v1/deployments":   DeployRequest{Query: ex.Query, Cluster: ex.Cluster, Placement: ex.Placement},
	} {
		doc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[path] = doc
	}
	wantOp := fmt.Sprintf("operator %d is null", len(ex.Query.Ops))
	for path, doc := range bodies {
		for _, tc := range []struct {
			body []byte
			want string
		}{{nullHost(doc), "host 0 is null"}, {nullOp(doc), wantOp}} {
			if bytes.Equal(tc.body, doc) {
				t.Fatalf("%s: no %q mutation in %s", path, tc.want, doc)
			}
			w := postRaw(s, path, tc.body)
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want) {
				t.Errorf("%s with a null element: status %d, want 400 naming %q: %s", path, w.Code, tc.want, w.Body)
			}
		}
	}
}

// TestNullScalarRejected: a null where a request holds a number, a
// string or a boolean is a 400 naming the value's path on every route
// that takes a query and a cluster, not a zero read in its place. A null
// seed on /v1/optimize stays accepted: the seed is a pointer, and null
// asks for the default.
func TestNullScalarRejected(t *testing.T) {
	s := newControlTestServer(t, nil)
	ex := exampleRequest(t, s.example)
	withFields := slices.IndexFunc(ex.Query.Ops, func(op *stream.Operator) bool { return len(op.FieldTypes) > 0 })
	if withFields < 0 {
		t.Fatal("no operator of the example has field types")
	}
	nullSel := [3]string{`"Selectivity":[^,}]+`, `"Selectivity":null`, "query.Ops[0].Selectivity: null is not a number"}
	nullField := [3]string{`"FieldTypes":\[\d+`, `"FieldTypes":[null`,
		fmt.Sprintf("query.Ops[%d].FieldTypes[0]: null is not a number", withFields)}
	for _, tc := range []struct {
		path string
		req  any
		muts [][3]string // expression, replacement, wanted error
	}{
		{"/v1/predict", ex, [][3]string{nullSel, nullField,
			{`"placement":\[\d+`, `"placement":[null`, "placement[0]: null is not a number"}}},
		{"/v1/predict-batch", PredictBatchRequest{Query: ex.Query, Cluster: ex.Cluster, Placements: []sim.Placement{ex.Placement, ex.Placement}},
			[][3]string{nullSel, nullField,
				{`"placements":\[\[\d+`, `"placements":[[null`, "placements[0][0]: null is not a number"},
				{`"placements":\[(\[[^\]]*\]),\[\d+`, `"placements":[$1,[null`, "placements[1][0]: null is not a number"}}},
		{"/v1/optimize", OptimizeRequest{Query: ex.Query, Cluster: ex.Cluster, Candidates: 4, Debug: true},
			[][3]string{nullSel, nullField,
				{`"candidates":4`, `"candidates":null`, "candidates: null is not a number"},
				{`"debug":true`, `"debug":null`, "debug: null is not a boolean"}}},
		{"/v1/deployments", DeployRequest{Query: ex.Query, Cluster: ex.Cluster, Placement: ex.Placement},
			[][3]string{nullSel, nullField,
				{`"placement":\[\d+`, `"placement":[null`, "placement[0]: null is not a number"}}},
	} {
		doc, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range tc.muts {
			w := postRaw(s, tc.path, replaceFirst(t, doc, m[0], m[1]))
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), m[2]) {
				t.Errorf("%s with %s: status %d, want 400 naming %q: %s", tc.path, m[1], w.Code, m[2], w.Body)
			}
		}
	}
	doc, err := json.Marshal(OptimizeRequest{Query: ex.Query, Cluster: ex.Cluster, Candidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w := postRaw(s, "/v1/optimize", replaceFirst(t, doc, `"candidates":4`, `"candidates":4,"seed":null`)); w.Code != http.StatusOK {
		t.Errorf(`/v1/optimize with "seed":null: status %d, want 200: %s`, w.Code, w.Body)
	}
}

func TestDefaultBodyCap(t *testing.T) {
	s := newTestServer(t, Config{})
	if s.maxBody != DefaultMaxRequestBytes {
		t.Fatalf("default cap %d, want %d", s.maxBody, DefaultMaxRequestBytes)
	}
}

// TestOptimizePreCancelledContext: a request whose context is already
// cancelled does no predictor work and reports the cancellation.
func TestOptimizePreCancelledContext(t *testing.T) {
	pred := &fakePred{}
	s := newTestServer(t, Config{Predictor: pred})
	q, c := testQuery(t), testCluster()
	data, err := json.Marshal(OptimizeRequest{Query: q, Cluster: c, Candidates: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(data)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", w.Code, w.Body)
	}
	if pred.batchCalls.Load() != 0 {
		t.Errorf("pre-cancelled request still scored %d batches", pred.batchCalls.Load())
	}
}

// TestPredictCancelledContext: a /v1/predict miss whose client is already
// gone is scored under its request context like a /v1/predict-batch: no
// tile is scored, the answer is 503, and nothing is cached.
func TestPredictCancelledContext(t *testing.T) {
	pred := &fakePred{}
	s := newTestServer(t, Config{Predictor: pred})
	data, err := json.Marshal(PredictRequest{Query: testQuery(t), Cluster: testCluster(), Placement: sim.Placement{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(data)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "request cancelled") {
		t.Fatalf("status %d body %s, want 503 request cancelled", w.Code, w.Body)
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("%d cache entries after a cancelled request, want 0", n)
	}
	if got := pred.batchCalls.Load(); got != 0 {
		t.Errorf("cancelled request scored %d tiles, want 0", got)
	}
}

// TestDrainCancelledContext: a drain whose client is already gone answers
// 503 like a cancelled tick or deploy, not 500: the heal it started stopped
// at the cancelled search and left the deployment where it was.
func TestDrainCancelledContext(t *testing.T) {
	s := newControlTestServer(t, nil)
	w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "q1", Query: testQuery(t), Cluster: testCluster()})
	if w.Code != http.StatusOK {
		t.Fatalf("deploy: status %d: %s", w.Code, w.Body)
	}
	before := decodeStatus(t, w.Body.Bytes())
	victim := before.Hosts[len(before.Hosts)-1]
	data, err := json.Marshal(HostRequest{Host: victim})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/hosts/drain", bytes.NewReader(data)).WithContext(ctx)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "request cancelled") {
		t.Fatalf("status %d body %s, want 503 request cancelled", w.Code, w.Body)
	}
	after, ok := s.plane.Get("q1")
	if !ok || !slices.Equal(after.Placement, before.Placement) {
		t.Fatalf("cancelled drain moved q1 from %v to %v", before.Placement, after.Placement)
	}
}

// cancellingPred cancels the request context from inside the first
// tile it scores, simulating a client that disconnects mid-search.
type cancellingPred struct {
	fakePred
	cancel context.CancelFunc
}

func (p *cancellingPred) NewScoreSession(q *stream.Analysis, c hardware.Checked) (placement.TileScorer, error) {
	return cancellingSession{fakeSession{&p.fakePred}, p.cancel}, nil
}

type cancellingSession struct {
	fakeSession
	cancel context.CancelFunc
}

func (s cancellingSession) ScoreTile(ps []sim.Placement, need placement.CostSet, out []placement.PredCosts) error {
	err := s.fakeSession.ScoreTile(ps, need, out)
	s.cancel()
	return err
}

// TestOptimizeCancelMidSearch: cancelling mid-search aborts remaining
// scoring but still answers with the partial incumbent — the search
// examined strictly fewer candidates than the budget.
func TestOptimizeCancelMidSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pred := &cancellingPred{cancel: cancel}
	s := newTestServer(t, Config{Predictor: pred})
	q, c := testQuery(t), testCluster()
	const budget = 512
	data, err := json.Marshal(OptimizeRequest{Query: q, Cluster: c, Candidates: budget})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(data)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with partial incumbent; body %s", w.Code, w.Body)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Examined == 0 || resp.Examined >= budget {
		t.Errorf("examined %d candidates, want partial progress in (0, %d)", resp.Examined, budget)
	}
	if len(resp.Placement) != q.NumOps() {
		t.Errorf("partial incumbent has %d ops, want %d", len(resp.Placement), q.NumOps())
	}
}

// gatedPred scores one placement per tile and cancels the request context
// from inside its limit-th tile, modeling a client that disconnects
// mid-batch.
type gatedPred struct {
	limit  int64
	cancel context.CancelFunc
	tiles  atomic.Int64
}

func (g *gatedPred) NewScoreSession(q *stream.Analysis, c hardware.Checked) (placement.TileScorer, error) {
	return placement.PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (placement.PredCosts, error) {
		if g.tiles.Add(1) == g.limit {
			g.cancel()
		}
		return fakeCosts(p), nil
	}).NewScoreSession(q, c)
}

// TestPredictBatchCancelMidBatch: a client that disconnects mid-batch
// stops the scoring at the next tile — no placement is scored after the
// cancellation — and the request is answered 503 like a cancelled
// optimize.
func TestPredictBatchCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pred := &gatedPred{limit: 5, cancel: cancel}
	s := newTestServer(t, Config{Predictor: pred})
	ps := make([]sim.Placement, 200)
	for i := range ps {
		ps[i] = sim.Placement{0, 1, 2}
	}
	data, err := json.Marshal(PredictBatchRequest{Query: testQuery(t), Cluster: testCluster(), Placements: ps})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict-batch", bytes.NewReader(data)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "request cancelled") {
		t.Fatalf("status %d body %.120s, want 503 request cancelled", w.Code, w.Body)
	}
	if got := pred.tiles.Load(); got != pred.limit {
		t.Errorf("%d placements scored, want %d (none after the cancellation)", got, pred.limit)
	}
}

// TestInvalidUnusedHostRejected: the simulator checks only the hosts a
// placement uses, so each route that takes a cluster refuses an invalid
// one at decode, with a 400, even when the bad host is one the request's
// placement does not use: a duplicate host ID, a null host, or a
// non-positive feature (JSON carries no NaN; Host.Validate refuses both
// with the same check).
func TestInvalidUnusedHostRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	var ex PredictRequest
	if err := json.Unmarshal(s.example, &ex); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		host *hardware.Host
		want string
	}{
		{"duplicate id", &hardware.Host{ID: ex.Cluster.Hosts[0].ID, CPU: 100, RAMMB: 1000, NetBandwidthMbps: 100}, "duplicate host id"},
		{"null host", nil, fmt.Sprintf("host %d is null", len(ex.Cluster.Hosts))},
		{"zero cpu", &hardware.Host{ID: "spare", RAMMB: 1000, NetBandwidthMbps: 100}, "cpu must be finite and positive"},
	} {
		c := &hardware.Cluster{Hosts: append(slices.Clone(ex.Cluster.Hosts), tc.host)}
		for path, req := range map[string]any{
			"/v1/predict":       PredictRequest{Query: ex.Query, Cluster: c, Placement: ex.Placement},
			"/v1/predict-batch": PredictBatchRequest{Query: ex.Query, Cluster: c, Placements: []sim.Placement{ex.Placement}},
			"/v1/optimize":      OptimizeRequest{Query: ex.Query, Cluster: c, Candidates: 4},
			"/v1/deployments":   DeployRequest{Query: ex.Query, Cluster: c, Placement: ex.Placement},
		} {
			doc, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			w := postRaw(s, path, doc)
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want) {
				t.Errorf("%s with a %s on an unused host: status %d, want 400 naming %q: %s", path, tc.name, w.Code, tc.want, w.Body)
			}
		}
	}
}
