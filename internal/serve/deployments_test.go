package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"costream/internal/controlplane"
	"costream/internal/hardware"
	"costream/internal/obs"
	"costream/internal/sim"
	"costream/internal/stream"
)

// echoFeed observes exactly what fakePred predicts, so q-errors stay at 1
// and deployments look healthy unless a structural violation (cordoned or
// dead host) forces the control plane's hand.
type echoFeed struct{}

// checked checks a test cluster, which must be valid.
func checked(c *hardware.Cluster) hardware.Checked {
	k, err := c.Check()
	if err != nil {
		panic(err)
	}
	return k
}

// analyzed analyses a test query, which must be valid.
func analyzed(q *stream.Query) *stream.Analysis {
	a, err := q.Analyze()
	if err != nil {
		panic(err)
	}
	return a
}

func (echoFeed) Observe(q *stream.Analysis, c hardware.Checked, p sim.Placement) (*sim.Metrics, error) {
	pc := fakeCosts(p)
	return &sim.Metrics{
		ThroughputTPS: pc.ThroughputTPS,
		ProcLatencyMS: pc.ProcLatencyMS,
		E2ELatencyMS:  pc.E2ELatencyMS,
		Success:       true,
	}, nil
}

// newControlTestServer builds a server whose plane heals with echoFeed
// observations, keeping control ticks deterministic and fast.
func newControlTestServer(t testing.TB, reg *obs.Registry) *Server {
	t.Helper()
	pred := &fakePred{}
	pl, err := controlplane.New(controlplane.Config{
		Policy: controlplane.Policy{Predictor: pred},
		Feed:   echoFeed{},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, Config{Predictor: pred, ControlPlane: pl, Registry: reg})
}

func decodeStatus(t testing.TB, data []byte) controlplane.Status {
	t.Helper()
	var st controlplane.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding status: %v: %s", err, data)
	}
	return st
}

func TestDeploymentsCRUD(t *testing.T) {
	s := newControlTestServer(t, nil)
	q, c := testQuery(t), testCluster()

	w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "q1", Query: q, Cluster: c})
	if w.Code != http.StatusOK {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	st := decodeStatus(t, w.Body.Bytes())
	if st.ID != "q1" || !st.Deployed || len(st.Placement) != q.NumOps() {
		t.Fatalf("create status = %+v", st)
	}

	if w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "q1", Query: q, Cluster: c}); w.Code != http.StatusConflict {
		t.Fatalf("duplicate: status %d, want 409", w.Code)
	}

	// Without an id the server generates one.
	w = doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{Query: q, Cluster: c})
	if w.Code != http.StatusOK {
		t.Fatalf("auto-id create: status %d: %s", w.Code, w.Body)
	}
	auto := decodeStatus(t, w.Body.Bytes()).ID
	if !strings.HasPrefix(auto, "dep-") {
		t.Fatalf("generated id %q", auto)
	}

	// An explicit placement is adopted as-is.
	p := sim.Placement{0, 1, 2}
	w = doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "pinned", Query: q, Cluster: c, Placement: p})
	if w.Code != http.StatusOK {
		t.Fatalf("adopt: status %d: %s", w.Code, w.Body)
	}
	if st := decodeStatus(t, w.Body.Bytes()); st.Placement[0] != 0 || st.Placement[1] != 1 || st.Placement[2] != 2 {
		t.Fatalf("adopted placement = %v, want %v", st.Placement, p)
	}

	w = doJSON(t, s, http.MethodGet, "/v1/deployments", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("list: status %d", w.Code)
	}
	var list struct {
		Deployments []controlplane.Status `json:"deployments"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Deployments) != 3 {
		t.Fatalf("list has %d deployments, want 3", len(list.Deployments))
	}

	if w := doJSON(t, s, http.MethodGet, "/v1/deployments/q1", nil); w.Code != http.StatusOK {
		t.Fatalf("get: status %d", w.Code)
	}
	if w := doJSON(t, s, http.MethodGet, "/v1/deployments/ghost", nil); w.Code != http.StatusNotFound {
		t.Fatalf("get ghost: status %d, want 404", w.Code)
	}
	if w := doJSON(t, s, http.MethodDelete, "/v1/deployments/q1", nil); w.Code != http.StatusOK {
		t.Fatalf("delete: status %d", w.Code)
	}
	if w := doJSON(t, s, http.MethodDelete, "/v1/deployments/q1", nil); w.Code != http.StatusNotFound {
		t.Fatalf("re-delete: status %d, want 404", w.Code)
	}
}

// TestDeploymentPredictedIsPredictCosts: a deployment's "predicted"
// object and /v1/predict's "costs" for the same placement are one type
// and so the same bytes.
func TestDeploymentPredictedIsPredictCosts(t *testing.T) {
	s := newControlTestServer(t, nil)
	q, c := testQuery(t), testCluster()
	p := sim.Placement{0, 1, 2}
	if w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "q1", Query: q, Cluster: c, Placement: p}); w.Code != http.StatusOK {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	var dep struct {
		Predicted json.RawMessage `json:"predicted"`
	}
	if err := json.Unmarshal(doJSON(t, s, http.MethodGet, "/v1/deployments/q1", nil).Body.Bytes(), &dep); err != nil {
		t.Fatal(err)
	}
	var pred struct {
		Costs json.RawMessage `json:"costs"`
	}
	w := doJSON(t, s, http.MethodPost, "/v1/predict", PredictRequest{Query: q, Cluster: c, Placement: p})
	if err := json.Unmarshal(w.Body.Bytes(), &pred); err != nil {
		t.Fatal(err)
	}
	if string(dep.Predicted) != string(pred.Costs) {
		t.Errorf("deployment predicted %s != predict costs %s", dep.Predicted, pred.Costs)
	}
}

func TestDeployValidation(t *testing.T) {
	s := newControlTestServer(t, nil)
	q, c := testQuery(t), testCluster()
	if w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "x", Cluster: c}); w.Code != http.StatusBadRequest {
		t.Errorf("missing query: status %d, want 400", w.Code)
	}
	if w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "bad id!", Query: q, Cluster: c}); w.Code != http.StatusBadRequest {
		t.Errorf("bad id: status %d, want 400", w.Code)
	}
	if w := doJSON(t, s, http.MethodPost, "/v1/hosts/cordon", HostRequest{}); w.Code != http.StatusBadRequest {
		t.Errorf("empty host: status %d, want 400", w.Code)
	}
	if w := doJSON(t, s, http.MethodGet, "/v1/deployments/q1", nil); w.Code != http.StatusNotFound {
		t.Errorf("empty registry get: status %d, want 404", w.Code)
	}
}

// TestCordonTickMovesDeployment is the serve-layer end of the issue's
// acceptance scenario: cordoning a host a deployment sits on makes the
// next control tick re-place it off that host, visible in the deployment
// history and the tick report.
func TestCordonTickMovesDeployment(t *testing.T) {
	s := newControlTestServer(t, nil)
	q, c := testQuery(t), testCluster()
	w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "q1", Query: q, Cluster: c})
	if w.Code != http.StatusOK {
		t.Fatalf("create: %d: %s", w.Code, w.Body)
	}
	st := decodeStatus(t, w.Body.Bytes())
	victim := st.Hosts[len(st.Hosts)-1]

	w = doJSON(t, s, http.MethodPost, "/v1/hosts/cordon", HostRequest{Host: victim})
	if w.Code != http.StatusOK {
		t.Fatalf("cordon: %d: %s", w.Code, w.Body)
	}

	w = doJSON(t, s, http.MethodPost, "/v1/control/tick", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("tick: %d: %s", w.Code, w.Body)
	}
	var rep controlplane.TickReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 1 || rep.Migrations != 1 {
		t.Fatalf("tick report = %+v, want 1 violation and 1 migration", rep)
	}

	w = doJSON(t, s, http.MethodGet, "/v1/deployments/q1", nil)
	st = decodeStatus(t, w.Body.Bytes())
	for _, h := range st.Hosts {
		if h == victim {
			t.Fatalf("deployment still on cordoned host %s: %v", victim, st.Hosts)
		}
	}
	last := st.History[len(st.History)-1]
	if last.Violation != "cordoned-host" || last.Action != "replaced" {
		t.Fatalf("history tail = %+v, want cordoned-host/replaced", last)
	}

	// Host aggregation reflects the cordon.
	w = doJSON(t, s, http.MethodGet, "/v1/hosts", nil)
	var hosts struct {
		Hosts []controlplane.HostStatus `json:"hosts"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hosts); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hosts.Hosts {
		if h.ID == victim {
			found = true
			if !h.Cordoned || h.Deployments != 0 {
				t.Fatalf("cordoned host state = %+v", h)
			}
		}
	}
	if !found {
		t.Fatalf("host %s missing from aggregation: %+v", victim, hosts.Hosts)
	}

	if w := doJSON(t, s, http.MethodPost, "/v1/hosts/uncordon", HostRequest{Host: victim}); w.Code != http.StatusOK {
		t.Fatalf("uncordon: %d", w.Code)
	}
}

func TestDrainEndpoint(t *testing.T) {
	s := newControlTestServer(t, nil)
	q, c := testQuery(t), testCluster()
	w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "q1", Query: q, Cluster: c})
	st := decodeStatus(t, w.Body.Bytes())
	victim := st.Hosts[len(st.Hosts)-1]
	w = doJSON(t, s, http.MethodPost, "/v1/hosts/drain", HostRequest{Host: victim})
	if w.Code != http.StatusOK {
		t.Fatalf("drain: %d: %s", w.Code, w.Body)
	}
	var out struct {
		Healed []string `json:"healed"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Healed) != 1 || out.Healed[0] != "q1" {
		t.Fatalf("drain healed %v, want [q1]", out.Healed)
	}
}

// TestMetricsExposeControlPlaneFamilies: the control-plane metric
// families ride the process-wide default registry (like production serve
// without a Registry override), so /metrics must surface them.
func TestMetricsExposeControlPlaneFamilies(t *testing.T) {
	s := newControlTestServer(t, obs.Default())
	q, c := testQuery(t), testCluster()
	w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "m1", Query: q, Cluster: c})
	st := decodeStatus(t, w.Body.Bytes())
	doJSON(t, s, http.MethodPost, "/v1/hosts/cordon", HostRequest{Host: st.Hosts[0]})
	if w := doJSON(t, s, http.MethodPost, "/v1/control/tick", nil); w.Code != http.StatusOK {
		t.Fatalf("tick: %d: %s", w.Code, w.Body)
	}
	w = doJSON(t, s, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, family := range []string{
		"costream_controlplane_deployments",
		"costream_controlplane_violations_total",
		"costream_controlplane_migrations_total",
		"costream_controlplane_suppressed_total",
		"costream_controlplane_tick_seconds",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// countingFeed is echoFeed that counts its observations.
type countingFeed struct {
	echoFeed
	n atomic.Int64
}

func (f *countingFeed) Observe(q *stream.Analysis, c hardware.Checked, p sim.Placement) (*sim.Metrics, error) {
	f.n.Add(1)
	return f.echoFeed.Observe(q, c, p)
}

// TestControlLoopStopFlushes: Stop halts the ticker before the listener
// would close — after it returns, no further ticks run and a concurrent
// tick has fully flushed (the plane lock is free). The plane holds one
// healthy deployment, so every tick observes it once: the feed counts
// the ticks.
func TestControlLoopStopFlushes(t *testing.T) {
	pred, feed := &fakePred{}, &countingFeed{}
	pl, err := controlplane.New(controlplane.Config{Policy: controlplane.Policy{Predictor: pred}, Feed: feed, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Predictor: pred, ControlPlane: pl})
	q, c := testQuery(t), testCluster()
	if w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "q1", Query: q, Cluster: c}); w.Code != http.StatusOK {
		t.Fatalf("create: %d: %s", w.Code, w.Body)
	}
	before := feed.n.Load()
	loop := StartControlLoop(pl, 2*time.Millisecond, nil)
	deadline := time.Now().Add(5 * time.Second)
	for feed.n.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := loop.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	ticks := feed.n.Load()
	time.Sleep(20 * time.Millisecond)
	if got := feed.n.Load(); got != ticks {
		t.Fatalf("loop still ticking after Stop: %d -> %d", ticks, got)
	}
	// The plane is fully flushed: its lock is free and state readable.
	if _, ok := pl.Get("q1"); !ok {
		t.Fatal("deployment lost across shutdown")
	}
	// Stop is idempotent.
	if err := loop.Stop(ctx); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// failingFeed is a metric feed whose probe is down.
type failingFeed struct{}

func (failingFeed) Observe(*stream.Analysis, hardware.Checked, sim.Placement) (*sim.Metrics, error) {
	return nil, errors.New("probe down")
}

// TestControlTickStatuses: a tick whose heal fails answers 500 naming
// the failure, and a tick whose client is gone answers 503, like a drain.
func TestControlTickStatuses(t *testing.T) {
	pred := &fakePred{}
	pl, err := controlplane.New(controlplane.Config{
		Policy: controlplane.Policy{Predictor: pred},
		Feed:   failingFeed{},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Predictor: pred, ControlPlane: pl})
	if w := doJSON(t, s, http.MethodPost, "/v1/deployments", DeployRequest{ID: "q1", Query: testQuery(t), Cluster: testCluster()}); w.Code != http.StatusOK {
		t.Fatalf("deploy: status %d: %s", w.Code, w.Body)
	}
	if w := doJSON(t, s, http.MethodPost, "/v1/control/tick", nil); w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "probe down") {
		t.Fatalf("failing heal: status %d body %s, want 500 naming the probe", w.Code, w.Body)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/control/tick", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "request cancelled") {
		t.Fatalf("cancelled tick: status %d body %s, want 503 request cancelled", w.Code, w.Body)
	}
}
