package serve

import (
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"costream/internal/nn"
	"costream/internal/obs"
)

// routeNames lists the stable route labels of the HTTP surface, used for
// the per-route request/error/latency series.
var routeNames = []string{"predict", "predict_batch", "optimize", "example", "healthz", "metrics",
	"deployments_create", "deployments_list", "deployments_get", "deployments_delete",
	"hosts", "hosts_cordon", "hosts_uncordon", "hosts_drain", "control_tick"}

// predictStages and optimizeStages are the costream_http_stage_seconds
// series of the two traced routes, one per stage, in the order a request
// runs them. A request that stops early records only the stages it ran.
type predictStages struct{ read, cache, decode, score, encode *obs.Histogram }

type optimizeStages struct{ decode, search, encode *obs.Histogram }

// serveMetrics is the server's view into its metrics registry: per-route
// request counters and latency histograms, per-stage latency histograms
// of the traced routes, and saturation rejections. Cache and in-flight
// series are registered as Func instruments reading the live structs
// (see registerFuncs), so they need no fields here.
type serveMetrics struct {
	requests map[string]*obs.Counter
	errors   map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	predict  predictStages
	optimize optimizeStages
	rejected *obs.Counter
}

func newServeMetrics(r *obs.Registry) *serveMetrics {
	stage := func(route, name string) *obs.Histogram {
		return r.Histogram("costream_http_stage_seconds",
			"time spent per request stage, by route and stage", 1e-9, "route", route, "stage", name)
	}
	m := &serveMetrics{
		requests: make(map[string]*obs.Counter, len(routeNames)),
		errors:   make(map[string]*obs.Counter, len(routeNames)),
		latency:  make(map[string]*obs.Histogram, len(routeNames)),
		predict: predictStages{stage("predict", "read"), stage("predict", "cache"),
			stage("predict", "decode"), stage("predict", "score"), stage("predict", "encode")},
		optimize: optimizeStages{stage("optimize", "decode"), stage("optimize", "search"), stage("optimize", "encode")},
		rejected: r.Counter("costream_http_rejected_total",
			"requests rejected with 503 because the in-flight limit stayed saturated past the queue timeout"),
	}
	for _, route := range routeNames {
		m.requests[route] = r.Counter("costream_http_requests_total",
			"HTTP requests received, by route", "route", route)
		m.errors[route] = r.Counter("costream_http_errors_total",
			"HTTP responses with status >= 400, by route", "route", route)
		m.latency[route] = r.Histogram("costream_http_request_seconds",
			"HTTP request handling time, by route", 1e-9, "route", route)
	}
	return m
}

// stageClock times the stages of one traced request on the handler's
// stack: lap closes the stage that ran since the previous lap (or the
// start) and records its duration in h, that stage's histogram.
type stageClock struct{ mark time.Time }

func (c *stageClock) lap(h *obs.Histogram) {
	now := time.Now()
	h.Record(int64(now.Sub(c.mark)))
	c.mark = now
}

// traceSeed decorrelates trace IDs across process restarts; traceCtr
// makes them unique within a process. Neither is cryptographic — a trace
// ID is a correlation handle, not a secret.
var (
	traceSeed = uint64(time.Now().UnixNano()) * 0x9E3779B97F4A7C15
	traceCtr  atomic.Uint64
)

// newTraceID returns a fresh request trace ID, 16 hex digits: the
// X-Costream-Trace header of a traced route's response.
func newTraceID() string {
	id := (traceSeed + traceCtr.Add(1)) * 0xBF58476D1CE4E5B9 // splitmix64-style mix
	var raw [8]byte
	var b [16]byte
	binary.BigEndian.PutUint64(raw[:], id^id>>31)
	hex.Encode(b[:], raw[:])
	return string(b[:])
}

// registerFuncs exposes the server's live state through scrape-time
// callbacks. Re-registration replaces the callbacks, so the latest
// server built against a shared registry (e.g. obs.Default) wins.
func (s *Server) registerFuncs(r *obs.Registry) {
	cacheCounter := func(sel func(h, m, e int64) int64, outcome string) {
		r.CounterFunc("costream_serve_cache_ops_total",
			"prediction cache operations, by outcome", func() float64 {
				h, m, e := s.cache.counters()
				return float64(sel(h, m, e))
			}, "outcome", outcome)
	}
	cacheCounter(func(h, _, _ int64) int64 { return h }, "hit")
	cacheCounter(func(_, m, _ int64) int64 { return m }, "miss")
	cacheCounter(func(_, _, e int64) int64 { return e }, "eviction")
	r.GaugeFunc("costream_serve_cache_entries",
		"prediction cache occupancy in entries", func() float64 { return float64(s.cache.len()) })

	r.GaugeFunc("costream_serve_in_flight",
		"predictor calls currently executing", func() float64 { return float64(s.inflight.Load()) })
	r.GaugeFunc("costream_serve_max_in_flight",
		"configured bound on concurrent predictor calls", func() float64 { return float64(cap(s.sem)) })
	r.GaugeFunc("costream_serve_cache_capacity",
		"configured prediction cache capacity in entries (0: caching disabled)", func() float64 { return float64(s.cache.capacity()) })

	// A constant 1 whose labels tie every figure of this process to the
	// build and the forward kernel that produced it.
	r.GaugeFunc("costream_build_info",
		"always 1: the Go version, architecture and dense forward kernel (avx512, avx2 or portable) of this process",
		func() float64 { return 1 },
		"go_version", runtime.Version(), "goarch", runtime.GOARCH, "affine_kernel", nn.ForwardKernel())
}

// statusRecorder captures the response status for per-route error
// counting without changing handler code.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush, deadline and hijack support through the recorder.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// recorderPool recycles statusRecorders: route hands one to a handler as
// an interface, so a fresh one per request would be a heap object.
var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// route wraps a handler with the per-route instrumentation: request
// counter, latency histogram, and error counter on status >= 400.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs, errs, lat := s.met.requests[name], s.met.errors[name], s.met.latency[name]
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		sr := recorderPool.Get().(*statusRecorder)
		sr.ResponseWriter, sr.status = w, http.StatusOK
		start := time.Now()
		h(sr, r)
		lat.Since(start)
		if sr.status >= 400 {
			errs.Inc()
		}
		sr.ResponseWriter = nil
		recorderPool.Put(sr)
	}
}
