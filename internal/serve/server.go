// Package serve implements costream-serve's HTTP layer: a long-running
// JSON service that answers cost-prediction and placement-optimization
// queries from one loaded model artifact. It is the serving half of the
// zero-shot workflow — train once, save an artifact, then serve placement
// decisions for unseen workloads without retraining.
//
// Endpoints:
//
//	POST /v1/predict        predict the five cost metrics for one placement
//	POST /v1/predict-batch  score many placements of one query in one call
//	POST /v1/optimize       search the placement space for the best placement
//	                        (random / exhaustive / beam / local-search)
//	GET  /v1/example        a ready-to-POST sample predict request
//	GET  /healthz           liveness plus model provenance
//	GET  /metrics           Prometheus text exposition: every counter, gauge
//	                        and histogram of the server and its model
//
// Plus the placement control plane (internal/controlplane):
//
//	POST   /v1/deployments        register a query for continuous placement control
//	GET    /v1/deployments        list deployments
//	GET    /v1/deployments/{id}   one deployment's status and decision history
//	DELETE /v1/deployments/{id}   evict a deployment
//	GET    /v1/hosts              aggregated host state (cordons, load)
//	POST   /v1/hosts/cordon       mark a host unschedulable ({"host": "..."})
//	POST   /v1/hosts/uncordon     reverse a cordon
//	POST   /v1/hosts/drain        cordon plus immediate re-placement
//	POST   /v1/control/tick       run one control tick now
//
// The hot path is engineered for concurrent load: /v1/predict responses
// are served from a bounded LRU keyed by a digest of the request bytes,
// so a hit is a read, a hash, a map probe and a write of the stored
// response bytes, with no JSON work (the trade: a re-formatted copy of a
// request is its own entry); a miss reads the body in one pass, without
// encoding/json's reflection, as every POST route reads its body (the
// request readers of canonical.go), and is scored like a
// /v1/predict-batch of one (placement.Score under the request context);
// and a semaphore
// bounds the predictor work in flight regardless of how many requests are
// queued.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"costream/internal/controlplane"
	"costream/internal/hardware"
	"costream/internal/obs"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// DefaultMaxRequestBytes bounds request bodies when Config leaves
// MaxRequestBytes zero; query plans and clusters are small, so anything
// larger is abuse or a mistake. Oversized bodies are answered 413.
const DefaultMaxRequestBytes = 16 << 20

// maxCandidates bounds client-requested work per call: the number of
// candidates one /v1/optimize may enumerate and the number of placements
// one /v1/predict-batch may score. Both are clamped before any work (and
// before the in-flight semaphore), so a single request cannot allocate
// or compute unboundedly.
const maxCandidates = 4096

// Config configures a Server.
type Config struct {
	// Predictor answers cost queries; a loaded model artifact satisfies
	// this. Required.
	Predictor placement.Predictor
	// CacheSize is the LRU capacity in entries. 0 selects
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// MaxInFlight bounds concurrent predictor work (predict scoring and
	// optimization runs). <= 0 selects GOMAXPROCS.
	MaxInFlight int
	// ModelInfo is surfaced verbatim under "model" in /healthz —
	// typically the artifact's provenance.
	ModelInfo any
	// Registry receives the server's metric series and backs GET
	// /metrics. Nil selects the process-wide obs.Default() registry (so
	// placement-search and inference families recorded elsewhere in the
	// process appear on the same scrape).
	Registry *obs.Registry
	// MaxRequestBytes caps request body size; larger bodies are rejected
	// with 413. <= 0 selects DefaultMaxRequestBytes.
	MaxRequestBytes int64
	// ControlPlane backs the /v1/deployments and /v1/hosts surface. Nil
	// builds a default plane over Predictor (simulated metric feed,
	// default policy).
	ControlPlane *controlplane.Plane
}

// DefaultQueueTimeout bounds how long a request waits for an in-flight
// slot before it is rejected with 503 and a Retry-After header.
const DefaultQueueTimeout = 2 * time.Second

// ErrSaturated is returned by the admission path when the in-flight
// semaphore stays full past DefaultQueueTimeout; handlers map it to 503.
var ErrSaturated = errors.New("server saturated: too much predictor work in flight")

// DefaultCacheSize is the prediction cache capacity when Config leaves
// CacheSize zero.
const DefaultCacheSize = 4096

// Server is the HTTP handler for one loaded cost model.
type Server struct {
	cfg          Config
	pred         placement.Predictor
	mux          *http.ServeMux
	cache        *lruCache
	sem          chan struct{}
	start        time.Time
	queueTimeout time.Duration
	maxBody      int64
	met          *serveMetrics
	plane        *controlplane.Plane
	// example is the precomputed /v1/example response body: the sample
	// request is deterministic (fixed seed), so it is built once.
	example []byte

	inflight  atomic.Int64
	deploySeq atomic.Int64
}

// New validates the configuration and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("serve: config needs a predictor")
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	maxBody := cfg.MaxRequestBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxRequestBytes
	}
	s := &Server{
		cfg:          cfg,
		pred:         cfg.Predictor,
		mux:          http.NewServeMux(),
		cache:        newLRUCache(cacheSize),
		sem:          make(chan struct{}, maxInFlight),
		start:        time.Now(),
		queueTimeout: DefaultQueueTimeout,
		maxBody:      maxBody,
		met:          newServeMetrics(reg),
	}
	s.plane = cfg.ControlPlane
	if s.plane == nil {
		plane, err := controlplane.New(controlplane.Config{
			Policy: controlplane.Policy{Predictor: cfg.Predictor},
			Seed:   1,
		})
		if err != nil {
			return nil, err
		}
		s.plane = plane
	}
	example, err := buildExample()
	if err != nil {
		return nil, err
	}
	s.example = example
	s.registerFuncs(reg)
	s.mux.HandleFunc("POST /v1/predict", s.route("predict", s.handlePredict))
	s.mux.HandleFunc("POST /v1/predict-batch", s.route("predict_batch", s.handlePredictBatch))
	s.mux.HandleFunc("POST /v1/optimize", s.route("optimize", s.handleOptimize))
	s.mux.HandleFunc("GET /v1/example", s.route("example", s.handleExample))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.route("metrics", reg.Handler().ServeHTTP))
	s.mux.HandleFunc("POST /v1/deployments", s.route("deployments_create", s.handleDeployCreate))
	s.mux.HandleFunc("GET /v1/deployments", s.route("deployments_list", s.handleDeployList))
	s.mux.HandleFunc("GET /v1/deployments/{id}", s.route("deployments_get", s.handleDeployGet))
	s.mux.HandleFunc("DELETE /v1/deployments/{id}", s.route("deployments_delete", s.handleDeployDelete))
	s.mux.HandleFunc("GET /v1/hosts", s.route("hosts", s.handleHosts))
	s.mux.HandleFunc("POST /v1/hosts/cordon", s.route("hosts_cordon", s.handleHostCordon))
	s.mux.HandleFunc("POST /v1/hosts/uncordon", s.route("hosts_uncordon", s.handleHostUncordon))
	s.mux.HandleFunc("POST /v1/hosts/drain", s.route("hosts_drain", s.handleHostDrain))
	s.mux.HandleFunc("POST /v1/control/tick", s.route("control_tick", s.handleControlTick))
	return s, nil
}

// ControlPlane returns the plane backing the deployment surface, so the
// binary can attach a ControlLoop to it.
func (s *Server) ControlPlane() *controlplane.Plane { return s.plane }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	s.mux.ServeHTTP(w, r)
}

// acquire claims an in-flight slot, waiting at most the queue timeout.
// A saturated server answers ErrSaturated instead of queueing without
// bound.
func (s *Server) acquire() error {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return nil
	default:
	}
	t := time.NewTimer(s.queueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return nil
	case <-t.C:
		s.met.rejected.Inc()
		return ErrSaturated
	}
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// writeSaturated maps ErrSaturated to 503 with a Retry-After hint.
func (s *Server) writeSaturated(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusServiceUnavailable, "%v", ErrSaturated)
}

// score is the one scoring path of the predict routes: it claims an
// in-flight slot and runs placement.Score over ps under the request
// context, so a disconnecting client stops the scoring at the next tile.
// On failure it answers the request itself and returns false: 503 with
// Retry-After when saturated, 503 when the client is gone, and 422 for
// the first placement that failed, named by what(i).
func (s *Server) score(w http.ResponseWriter, r *http.Request, a *stream.Analysis, k hardware.Checked, ps []sim.Placement, what func(i int) string) ([]placement.PredCosts, bool) {
	if err := s.acquire(); err != nil {
		s.writeSaturated(w)
		return nil, false
	}
	out, errs := placement.Score(r.Context(), s.pred, a, k, ps, placement.AllCosts)
	s.release()
	for i, err := range errs {
		if err == nil {
			continue
		}
		if r.Context().Err() != nil {
			// The client is gone; nobody reads this response.
			s.writeError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
			return nil, false
		}
		s.writeError(w, http.StatusUnprocessableEntity, "prediction failed: %s%v", what(i), err)
		return nil, false
	}
	return out, true
}

// Request / response schemas. Query, cluster and placement use the same
// JSON shapes as the trace corpus written by costream-datagen.

// PredictRequest asks for the cost of one placement.
type PredictRequest struct {
	Query     *stream.Query     `json:"query"`
	Cluster   *hardware.Cluster `json:"cluster"`
	Placement sim.Placement     `json:"placement"`
}

// PredictBatchRequest asks for the costs of many placements of one query.
type PredictBatchRequest struct {
	Query      *stream.Query     `json:"query"`
	Cluster    *hardware.Cluster `json:"cluster"`
	Placements []sim.Placement   `json:"placements"`
}

// DefaultOptimizeSeed is the search seed used when an /v1/optimize
// request omits "seed". An explicit zero seed is honored as-is.
const DefaultOptimizeSeed = 1

// OptimizeRequest asks the server to search the placement space and
// return the best candidate found under the budget.
type OptimizeRequest struct {
	Query   *stream.Query     `json:"query"`
	Cluster *hardware.Cluster `json:"cluster"`
	// Candidates is the search budget: the maximum number of distinct
	// placements scored (default placement.DefaultMaxCandidates; negative
	// is a 400).
	Candidates int `json:"candidates,omitempty"`
	// Rounds optionally bounds the generate->score->prune rounds
	// (default unlimited; the candidate budget still applies; negative is
	// a 400).
	Rounds int `json:"rounds,omitempty"`
	// Objective is an objective name placement.ParseObjective accepts,
	// as a fleet scenario's recovery.objective does:
	// "min-processing-latency" (default), "min-e2e-latency" or
	// "max-throughput", or one of their short forms.
	Objective string `json:"objective,omitempty"`
	// Strategy selects the search strategy: "random" (default),
	// "exhaustive", "beam" or "local-search".
	Strategy string `json:"strategy,omitempty"`
	// BeamWidth sets the beam width when Strategy is "beam".
	BeamWidth int `json:"beam_width,omitempty"`
	// Seed drives the search. Omitted: DefaultOptimizeSeed; an explicit
	// 0 is honored (it is a seed like any other).
	Seed *int64 `json:"seed,omitempty"`
	// Debug opts into per-round search telemetry in the response (the
	// "debug" stanza: per-round candidate dispositions and the incumbent
	// anytime curve). It never changes the chosen placement.
	Debug bool `json:"debug,omitempty"`
}

// PredictResponse carries the predicted costs for one placement.
type PredictResponse struct {
	Costs placement.PredCosts `json:"costs"`
}

// PredictBatchResponse carries per-placement costs, in request order.
type PredictBatchResponse struct {
	Costs []placement.PredCosts `json:"costs"`
}

// OptimizeResponse carries the chosen placement and its predicted costs.
type OptimizeResponse struct {
	Placement sim.Placement       `json:"placement"`
	Costs     placement.PredCosts `json:"costs"`
	// Filtered counts candidates removed by the sanity check (predicted
	// failure/backpressure) or scoring errors; Errored is the error subset.
	Filtered int `json:"filtered"`
	Errored  int `json:"errored"`
	// Strategy is the search strategy that ran; Rounds its
	// generate->score->prune round count; Examined the number of
	// distinct placements it scored.
	Strategy string `json:"strategy"`
	Rounds   int    `json:"rounds"`
	Examined int    `json:"examined"`
	// Index is the chosen placement's ordinal in the stream of scored
	// candidates; Seed is the effective search seed (the request seed,
	// or DefaultOptimizeSeed when omitted).
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
	// Debug carries per-round search telemetry when the request set
	// "debug": true; omitted otherwise.
	Debug *OptimizeDebug `json:"debug,omitempty"`
}

// OptimizeDebug is the opt-in search telemetry stanza of an optimize
// response.
type OptimizeDebug struct {
	// TraceID is the request's trace ID, also its X-Costream-Trace
	// header.
	TraceID string `json:"trace_id"`
	// Rounds holds one entry per generate->score->prune round.
	Rounds []placement.RoundStats `json:"rounds"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeBody answers status with an already encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// encodeJSON renders v as one JSON line, the form of every response
// body. On failure it answers 500 itself and returns false.
func encodeJSON(w http.ResponseWriter, v any) ([]byte, bool) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return nil, false
	}
	return buf.Bytes(), true
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if body, ok := encodeJSON(w, v); ok {
		writeBody(w, status, body)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxPooledBody is the largest request buffer bodyPool keeps: a buffer
// that grew past it for one big request is dropped rather than pinned.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the whole request body into a pooled buffer. The caller
// returns the buffer with releaseBody once nothing references its bytes.
func readBody(r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		releaseBody(buf)
		return nil, bodyError(err)
	}
	return buf, nil
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeBody reads r's body into a pooled buffer and decodes it with
// read, one of the request readers of canonical.go, which keep nothing
// of the buffer. On failure it answers 400, or 413 for a body past the
// size limit, and returns false.
func decodeBody[T any](s *Server, w http.ResponseWriter, r *http.Request, read func([]byte) (T, error)) (T, bool) {
	body, err := readBody(r)
	if err != nil {
		s.writeDecodeError(w, err)
		var zero T
		return zero, false
	}
	req, err := read(body.Bytes())
	releaseBody(body)
	if err != nil {
		s.writeDecodeError(w, bodyError(err))
		return req, false
	}
	return req, true
}

// bodyError words a body read or decode failure for the client, keeping
// an http.MaxBytesError in the chain for writeDecodeError.
func bodyError(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return fmt.Errorf("request body exceeds %d bytes: %w", tooBig.Limit, tooBig)
	}
	return fmt.Errorf("invalid request body: %v", err)
}

// writeDecodeError maps a readBody or request reader failure to its
// status: 413 for an oversized body, 400 otherwise.
func (s *Server) writeDecodeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, status, "%v", err)
}

// validatePair checks the parts shared by every request kind and returns
// the query's analysis and the checked cluster.
func validatePair(q *stream.Query, c *hardware.Cluster) (*stream.Analysis, hardware.Checked, error) {
	if q == nil {
		return nil, hardware.Checked{}, fmt.Errorf("missing query")
	}
	if c == nil {
		return nil, hardware.Checked{}, fmt.Errorf("missing cluster")
	}
	return placement.Check(q, c)
}

// handlePredict answers from the cache before any JSON work: the key is
// a digest of the body bytes and the value the encoded response, so only
// a miss decodes (readPredict), validates and scores the request. Only
// 200 responses are stored.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	clk := stageClock{time.Now()}
	w.Header().Set("X-Costream-Trace", newTraceID())
	body, err := readBody(r)
	if err != nil {
		s.writeDecodeError(w, err)
		return
	}
	defer releaseBody(body)
	clk.lap(s.met.predict.read)

	key := newCacheKey(body.Bytes())
	hit, ok := s.cache.get(key)
	clk.lap(s.met.predict.cache)
	if ok {
		w.Header().Set("X-Costream-Cache", "hit")
		writeBody(w, http.StatusOK, hit)
		return
	}

	req, err := readPredict(body.Bytes())
	if err != nil {
		s.writeDecodeError(w, bodyError(err))
		return
	}
	a, cluster, err := validatePair(req.Query, req.Cluster)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := req.Placement.Validate(req.Query, req.Cluster); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid placement: %v", err)
		return
	}
	clk.lap(s.met.predict.decode)

	costs, ok := s.score(w, r, a, cluster, []sim.Placement{req.Placement}, func(int) string { return "" })
	clk.lap(s.met.predict.score)
	if !ok {
		return
	}
	out, ok := encodeJSON(w, PredictResponse{Costs: costs[0]})
	if !ok {
		return
	}
	s.cache.add(key, out)
	w.Header().Set("X-Costream-Cache", "miss")
	writeBody(w, http.StatusOK, out)
	clk.lap(s.met.predict.encode)
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody(s, w, r, readPredictBatch)
	if !ok {
		return
	}
	a, cluster, err := validatePair(req.Query, req.Cluster)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Placements) == 0 {
		s.writeError(w, http.StatusBadRequest, "missing placements")
		return
	}
	if len(req.Placements) > maxCandidates {
		s.writeError(w, http.StatusBadRequest, "%d placements exceeds the per-request limit of %d", len(req.Placements), maxCandidates)
		return
	}
	for i, p := range req.Placements {
		if err := p.Validate(req.Query, req.Cluster); err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid placement %d: %v", i, err)
			return
		}
	}
	out, ok := s.score(w, r, a, cluster, req.Placements, func(i int) string { return fmt.Sprintf("placement %d: ", i) })
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, PredictBatchResponse{Costs: out})
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	clk, traceID := stageClock{time.Now()}, newTraceID()
	w.Header().Set("X-Costream-Trace", traceID)
	req, ok := decodeBody(s, w, r, readOptimize)
	if !ok {
		return
	}
	a, cluster, err := validatePair(req.Query, req.Cluster)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	obj, err := placement.ParseObjective(req.Objective)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A negative budget would read as "unlimited" (rounds) or "default"
	// (candidates) further down; neither is what the client asked for.
	if req.Candidates < 0 {
		s.writeError(w, http.StatusBadRequest, "candidates %d is negative", req.Candidates)
		return
	}
	if req.Rounds < 0 {
		s.writeError(w, http.StatusBadRequest, "rounds %d is negative", req.Rounds)
		return
	}
	k := req.Candidates
	if k == 0 {
		k = placement.DefaultMaxCandidates
	}
	if k > maxCandidates {
		s.writeError(w, http.StatusBadRequest, "%d candidates exceeds the per-request limit of %d", k, maxCandidates)
		return
	}
	strat, err := placement.ParseStrategy(req.Strategy)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.BeamWidth != 0 {
		if _, ok := strat.(placement.Beam); !ok {
			s.writeError(w, http.StatusBadRequest, "beam_width requires strategy %q, got %q", "beam", strat.Name())
			return
		}
		if req.BeamWidth < 0 || req.BeamWidth > k {
			s.writeError(w, http.StatusBadRequest, "beam_width %d out of range [1, %d]", req.BeamWidth, k)
			return
		}
		strat = placement.Beam{Width: req.BeamWidth}
	}
	seed := int64(DefaultOptimizeSeed)
	if req.Seed != nil {
		seed = *req.Seed
	}
	clk.lap(s.met.optimize.decode)
	if err := s.acquire(); err != nil {
		s.writeSaturated(w)
		return
	}
	// The request context threads into the search: a disconnecting
	// client stops candidate scoring at the next batch instead of
	// burning the full budget.
	res, err := placement.Search(r.Context(), s.pred, a, cluster, strat, obj,
		placement.Budget{MaxCandidates: k, MaxRounds: req.Rounds},
		placement.SearchOptions{Seed: seed, Telemetry: req.Debug})
	s.release()
	clk.lap(s.met.optimize.search)
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone; nobody reads this response.
			s.writeError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
			return
		}
		s.writeError(w, http.StatusUnprocessableEntity, "optimization failed: %v", err)
		return
	}
	resp := OptimizeResponse{
		Placement: res.Placement,
		Costs:     res.Costs,
		Filtered:  res.Filtered,
		Errored:   res.Errored,
		Strategy:  res.Strategy,
		Rounds:    res.Rounds,
		Examined:  res.Examined,
		Index:     res.Index,
		Seed:      seed,
	}
	if req.Debug {
		resp.Debug = &OptimizeDebug{TraceID: traceID, Rounds: res.Telemetry}
	}
	s.writeJSON(w, http.StatusOK, resp)
	clk.lap(s.met.optimize.encode)
}

// buildExample renders a deterministic, ready-to-POST predict request
// drawn from the benchmark workload generator — live documentation of
// the request schema and the body the CI smoke test POSTs back.
func buildExample() ([]byte, error) {
	gen := workload.New(workload.DefaultConfig(1))
	a := gen.Query()
	c := gen.Cluster()
	k, err := c.Check()
	if err != nil {
		return nil, fmt.Errorf("serve: building example request: %w", err)
	}
	p, err := placement.RandomValid(rand.New(rand.NewSource(1)), a, k)
	if err != nil {
		return nil, fmt.Errorf("serve: building example request: %w", err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(PredictRequest{Query: a.Query(), Cluster: c, Placement: p}); err != nil {
		return nil, fmt.Errorf("serve: building example request: %w", err)
	}
	return buf.Bytes(), nil
}

func (s *Server) handleExample(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.example)
}

type healthResponse struct {
	Status  string  `json:"status"`
	UptimeS float64 `json:"uptime_s"`
	Model   any     `json:"model,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, healthResponse{
		Status:  "ok",
		UptimeS: time.Since(s.start).Seconds(),
		Model:   s.cfg.ModelInfo,
	})
}
