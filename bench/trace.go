package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"costream"
)

// span is one timed call into a layer, recorded from this directory's own
// code. Spans of one op share Op; Parent is the index of the span of the
// next rung out (-1 for the outermost).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was made
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
	// warmed, when set, is called between the warm-up round and the
	// first measured one.
	warmed func() error
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record appends a span and returns its index.
func (t *tracer) record(name string, start, end time.Time, parent, op int) int {
	t.spans = append(t.spans, span{name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)), parent, op})
	return len(t.spans) - 1
}

// wrap returns op with a span around every call.
func (t *tracer) wrap(name string, op func(int) error) func(int) error {
	return func(i int) error {
		start := time.Now()
		err := op(i)
		t.record(name, start, time.Now(), -1, t.ops)
		t.ops++
		return err
	}
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ladder times rungs: calls into progressively inner layers on the same
// input. Every timed call is followed by a reference unit, and durations
// are normalised block by block, as the end-to-end timings are round by
// round.
type ladder struct {
	ref   *reference
	tr    *tracer
	unit  refUnit
	block []rung
	refNS float64
	norm  map[string][]float64 // normalised microseconds per rung name
	op    int
}

type rung struct {
	name string
	ns   float64
}

// ladderBlock is how many timed calls share one normalisation scale.
const ladderBlock = 24

// The reference unit after a rung that takes microseconds, and after one
// that takes milliseconds.
var (
	lightUnit = refUnit{kernelCalls: 8, echoCalls: 2, lanes: 1}
	heavyUnit = refUnit{kernelCalls: 400, echoCalls: 2, lanes: 1}
)

func newLadder(ref *reference, tr *tracer) *ladder {
	return &ladder{ref: ref, tr: tr, unit: lightUnit, norm: map[string][]float64{}}
}

// use closes the open block and switches the reference unit.
func (l *ladder) use(u refUnit) {
	l.flush()
	l.unit = u
}

// time runs fn as rung `name` of the current op, under the span parent,
// and returns the new span's index.
func (l *ladder) time(name string, parent int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	if err != nil {
		return -1, fmt.Errorf("%s: %w", name, err)
	}
	id := l.tr.record(name, start, end, parent, l.op)
	kernel, echo, _, err := l.ref.run(l.unit, end)
	if err != nil {
		return -1, err
	}
	l.block = append(l.block, rung{name, float64(end.Sub(start))})
	l.refNS += float64(kernel + echo)
	if len(l.block) == ladderBlock {
		l.flush()
	}
	return id, nil
}

// flush normalises the open block.
func (l *ladder) flush() {
	if len(l.block) == 0 {
		return
	}
	k := l.unit.nominalNS() * float64(len(l.block)) / l.refNS
	for _, r := range l.block {
		l.norm[r.name] = append(l.norm[r.name], r.ns*k/1e3)
	}
	l.block, l.refNS = l.block[:0], 0
}

// us is the median normalised duration of a rung in microseconds.
func (l *ladder) us(name string) float64 { return median(l.norm[name]) }

// inProcess sends one request to Server.ServeHTTP without a socket.
func (f *fixture) inProcess(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	rec := httptest.NewRecorder()
	f.srv.ServeHTTP(rec, req)
	return reply{rec.Code, rec.Header().Get("X-Costream-Cache"), rec.Body.Bytes()}, nil
}

func wantStatus(r reply, err error) error {
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return nil
}

// scrape is one reading of GET /metrics.
type scrape struct {
	hit, miss, rejected, errors float64
	bytes                       int
}

func (f *fixture) scrape() (scrape, error) {
	b, err := f.get("/metrics")
	if err != nil {
		return scrape{}, err
	}
	s := scrape{bytes: len(b)}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		switch series := line[:i]; {
		case series == `costream_serve_cache_ops_total{outcome="hit"}`:
			s.hit = v
		case series == `costream_serve_cache_ops_total{outcome="miss"}`:
			s.miss = v
		case series == "costream_http_rejected_total":
			s.rejected = v
		case strings.HasPrefix(series, "costream_http_errors_total{"):
			s.errors += v
		}
	}
	return s, sc.Err()
}

// runTraced is the traced run: a short measurement with every other
// round traced, then the layer ladder; it reports the per-layer metrics
// and writes the spans to out/trace-<workload>.json.
func runTraced(p params) (*result, error) {
	p.setupTimes = 1
	ses, err := openSession(p)
	if err != nil {
		return nil, err
	}
	defer ses.close()
	f, ref, refBytes := ses.f, ses.ref, ses.refBytes

	tr := newTracer()
	var before scrape
	tr.warmed = func() (err error) { before, err = f.scrape(); return err }
	t := &tally{logf: p.logf}
	rounds, err := ses.measure(p, t, tr)
	if err != nil {
		return nil, err
	}
	after, err := f.scrape()
	if err != nil {
		return nil, err
	}
	var traced, untraced []round
	for i, r := range rounds {
		if i%2 == 1 {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	v := summarize(rounds, refBytes, p.w.tailPct).informational()
	v["bench.trace_overhead_ratio"] = 1 - summarize(traced, refBytes, p.w.tailPct).throughputNorm/
		summarize(untraced, refBytes, p.w.tailPct).throughputNorm
	v["serve.rejected_total"] = after.rejected - before.rejected
	v["serve.errors_total"] = after.errors - before.errors
	v["serve.cache_hit_ratio"] = 0
	v["dataset.generate_traces_s"] = f.genTracesS
	v["artifact.save_ms"] = f.saveMS
	v["artifact.load_ms"] = f.loadMS
	v["artifact.size_kb"] = f.artifactKB
	if lookups := after.hit - before.hit + after.miss - before.miss; lookups > 0 {
		v["serve.cache_hit_ratio"] = (after.hit - before.hit) / lookups
	}

	l := newLadder(ref, tr)
	for _, probe := range []func(*fixture, *ladder, params, map[string]float64) error{
		probePredict, probeCore, probeSearch, probeControlPlane, probeFleet, probeRest,
	} {
		if err := probe(f, l, p, v); err != nil {
			return nil, err
		}
	}
	if err := tr.write(filepath.Join("out", "trace-"+p.w.name+".json")); err != nil {
		return nil, err
	}
	v["error_rate"] = float64(t.failed) / float64(t.attempted)
	return newResult(t, perLayer, v)
}

// ladderSize is how many sampled inputs each ladder replays, where one
// replay is cheap; expensive rungs say their own counts.
func ladderSize(p params) int { return max(8, int(p.seconds*20)) }

// probePredict is the predict ladder: socket -> Server.ServeHTTP in
// process -> Model.PredictCosts, for a miss and for a hit. Each rung of a
// miss gets a request nobody sent before, of the same query and cluster.
func probePredict(f *fixture, l *ladder, p params, v map[string]float64) error {
	l.use(lightUnit)
	var buf bytes.Buffer
	var reqBytes, respBytes, transport, envelope []float64
	fresh := 1 << 20 // variant numbers no workload reaches
	for i := 0; i < ladderSize(p); i++ {
		l.op++
		pr := f.pool.predict[i%len(f.pool.predict)]
		var reqs [2]predictRequest
		for j := range reqs {
			var err error
			if reqs[j], err = newPredictRequest(pr, fresh, p.seed); err != nil {
				return err
			}
			fresh++
		}
		var r reply
		post := func(body []byte) func() error {
			return func() (err error) { r, err = f.post("/v1/predict", body, &buf); return wantStatus(r, err) }
		}
		serve := func(body []byte) func() error {
			return func() (err error) { r, err = f.inProcess("POST", "/v1/predict", body); return wantStatus(r, err) }
		}
		sockMiss, err := l.time("predict.socket.miss", -1, post(reqs[0].body))
		if err != nil {
			return err
		}
		reqBytes, respBytes = append(reqBytes, float64(len(reqs[0].body))), append(respBytes, float64(len(r.body)))
		sockHit, err := l.time("predict.socket.hit", -1, post(reqs[0].body))
		if err != nil {
			return err
		}
		if _, err := l.time("predict.handler.hit", sockHit, serve(reqs[0].body)); err != nil {
			return err
		}
		if r.cache != "hit" {
			return fmt.Errorf("predict ladder: repeated request was a cache %q", r.cache)
		}
		handlerMiss, err := l.time("predict.handler.miss", sockMiss, serve(reqs[1].body))
		if err != nil {
			return err
		}
		if r.cache != "miss" {
			return fmt.Errorf("predict ladder: fresh request was a cache %q", r.cache)
		}
		if _, err := l.time("core.predict_single", handlerMiss, func() error {
			_, err := f.model.PredictCosts(reqs[1].q, reqs[1].c, reqs[1].p)
			return err
		}); err != nil {
			return err
		}
	}
	l.flush()
	n := len(l.norm["predict.socket.hit"])
	for i := 0; i < n; i++ {
		transport = append(transport, l.norm["predict.socket.hit"][i]-l.norm["predict.handler.hit"][i])
		envelope = append(envelope, l.norm["predict.handler.miss"][i]-l.norm["core.predict_single"][i])
	}
	v["serve.socket_hit_us"] = l.us("predict.socket.hit")
	v["serve.socket_miss_us"] = l.us("predict.socket.miss")
	v["serve.handler_hit_us"] = l.us("predict.handler.hit")
	v["serve.handler_miss_us"] = l.us("predict.handler.miss")
	v["serve.transport_us"] = median(transport)
	v["serve.envelope_miss_us"] = median(envelope)
	v["core.predict_single_us"] = l.us("core.predict_single")
	v["serve.request_bytes"] = mean(reqBytes)
	v["serve.response_bytes"] = mean(respBytes)
	return nil
}

// tileSize is the batch PredictCostsBatch is timed on.
const tileSize = 64

// probeCore times the inference layer used as a tile and as a single
// call on the same subject, and the training path.
func probeCore(f *fixture, l *ladder, p params, v map[string]float64) error {
	l.use(lightUnit)
	for i := 0; i < ladderSize(p)/4; i++ {
		l.op++
		pr := f.pool.search[i%len(f.pool.search)]
		tile := make([]costream.Placement, tileSize)
		for j := range tile {
			var err error
			if tile[j], err = costream.HeuristicPlacement(pr.q, pr.c, p.seed+int64(i*tileSize+j)); err != nil {
				return err
			}
		}
		if _, err := l.time("core.predict_tile", -1, func() error {
			_, err := f.model.PredictCostsBatch(pr.q, pr.c, tile)
			return err
		}); err != nil {
			return err
		}
		if _, err := l.time("core.predict_one_of_tile", -1, func() error {
			_, err := f.model.PredictCosts(pr.q, pr.c, tile[0])
			return err
		}); err != nil {
			return err
		}
	}
	l.flush()
	v["core.predict_tile_us_per_cand"] = l.us("core.predict_tile") / tileSize
	v["core.call_overhead_us"] = l.us("core.predict_one_of_tile") - v["core.predict_tile_us_per_cand"]

	l.use(heavyUnit)
	var allocs []float64
	for i := 0; i < max(2, int(p.seconds/3)); i++ {
		l.op++
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := l.time("core.train_epoch", -1, func() error {
			_, err := costream.TrainModel(f.corpus, trainOptions(f.rec, 1, 1, p.seed+int64(i)))
			return err
		}); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		// The reference unit that follows the call is inside the window.
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)-refAllocs*float64(l.unit.kernelCalls))
		l.flush()
	}
	samples := float64(f.corpus.Len())
	v["core.train_samples_s"] = samples / (l.us("core.train_epoch") * 1e-6)
	v["core.train_allocs_per_sample"] = median(allocs) / samples
	return nil
}

// probeSearch is the optimize ladder (socket -> ServeHTTP -> facade
// search with the server's worker count) and the per-strategy search
// cost at one worker.
func probeSearch(f *fixture, l *ladder, p params, v map[string]float64) error {
	l.use(heavyUnit)
	var buf bytes.Buffer
	var envelope, engineSelf, examined, rounds, filtered []float64
	reps := max(2, int(p.seconds))
	budget := costream.SearchBudget{MaxCandidates: f.rec.searchBudget}
	for _, name := range strategies {
		strat, err := costream.ParseSearchStrategy(name)
		if err != nil {
			return err
		}
		for i := 0; i < reps; i++ {
			l.op++
			pr := f.pool.search[i%len(f.pool.search)]
			seed := p.seed + int64(i)
			body, err := json.Marshal(optimizeBody{pr.q, pr.c, f.rec.searchBudget, name, seed})
			if err != nil {
				return err
			}
			sock, err := l.time("optimize.socket", -1, func() error {
				return wantStatus(f.post("/v1/optimize", body, &buf))
			})
			if err != nil {
				return err
			}
			handler, err := l.time("optimize.handler", sock, func() error {
				return wantStatus(f.inProcess("POST", "/v1/optimize", body))
			})
			if err != nil {
				return err
			}
			search := func(workers int, res **costream.SearchResult) func() error {
				return func() (err error) {
					*res, err = f.model.OptimizePlacementSearchCtx(context.Background(), pr.q, pr.c, strat,
						costream.MinProcLatency, budget, costream.SearchOpts{Seed: seed, Workers: workers})
					return err
				}
			}
			var res *costream.SearchResult
			if _, err := l.time("optimize.facade", handler, search(0, &res)); err != nil {
				return err
			}
			if _, err := l.time("placement.search."+name, -1, search(1, &res)); err != nil {
				return err
			}
			examined = append(examined, float64(res.Examined))
			rounds = append(rounds, float64(res.Rounds))
			filtered = append(filtered, float64(res.Filtered))
		}
		l.flush()
		v["placement.search_us."+name] = l.us("placement.search." + name)
	}
	for i, h := range l.norm["optimize.handler"] {
		envelope = append(envelope, h-l.norm["optimize.facade"][i])
	}
	perCand := v["core.predict_tile_us_per_cand"]
	i := 0
	for _, name := range strategies {
		for _, t := range l.norm["placement.search."+name] {
			engineSelf = append(engineSelf, t-examined[i]*perCand)
			i++
		}
	}
	v["serve.optimize_envelope_us"] = median(envelope)
	v["serve.optimize_socket_us"] = l.us("optimize.socket")
	v["placement.examined_per_search"] = mean(examined)
	v["placement.rounds_per_search"] = mean(rounds)
	v["placement.budget_use_ratio"] = mean(examined) / float64(f.rec.searchBudget)
	v["placement.filtered_ratio"] = mean(filtered) / mean(examined)
	v["placement.engine_self_us"] = median(engineSelf)

	l.use(lightUnit)
	for i := 0; i < ladderSize(p); i++ {
		l.op++
		pr := f.pool.predict[i%len(f.pool.predict)]
		if _, err := l.time("placement.heuristic", -1, func() error {
			_, err := costream.HeuristicPlacement(pr.q, pr.c, p.seed+int64(i))
			return err
		}); err != nil {
			return err
		}
	}
	l.flush()
	v["placement.heuristic_us"] = l.us("placement.heuristic")
	return nil
}

// controlDeployments is how many queries the control-plane probe keeps
// deployed.
const controlDeployments = 8

// probeControlPlane drives the control plane over the wire: deploy,
// ticks with nothing cordoned, and ticks right after a cordon.
func probeControlPlane(f *fixture, l *ladder, p params, v map[string]float64) error {
	l.use(heavyUnit)
	var buf bytes.Buffer
	call := func(path string, body any) func() error {
		return func() error {
			b, err := json.Marshal(body)
			if err != nil {
				return err
			}
			return wantStatus(f.post(path, b, &buf))
		}
	}
	type deployBody struct {
		ID      string            `json:"id"`
		Query   *costream.Query   `json:"query"`
		Cluster *costream.Cluster `json:"cluster"`
	}
	type hostBody struct {
		Host string `json:"host"`
	}
	ids := make([]string, 0, controlDeployments)
	defer func() {
		for _, id := range ids {
			req, err := http.NewRequest("DELETE", f.url+"/v1/deployments/"+id, nil)
			if err != nil {
				continue
			}
			if resp, err := f.client.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}()
	for i := 0; i < controlDeployments; i++ {
		l.op++
		// The larger subjects: a cordon leaves them somewhere to go.
		pr := f.pool.predict[len(f.pool.predict)-1-i]
		id := fmt.Sprintf("bench-%d-%d", os.Getpid(), i)
		if _, err := l.time("controlplane.deploy", -1, call("/v1/deployments", deployBody{id, pr.q, pr.c})); err != nil {
			return err
		}
		ids = append(ids, id)
	}
	for i := 0; i < max(4, int(p.seconds)); i++ {
		l.op++
		if _, err := l.time("controlplane.tick_idle", -1, call("/v1/control/tick", struct{}{})); err != nil {
			return err
		}
	}
	for i := 0; i < max(2, int(p.seconds/2)); i++ {
		l.op++
		host := hostBody{fmt.Sprintf("host-%d", i%minHosts)}
		if err := call("/v1/hosts/cordon", host)(); err != nil {
			return err
		}
		if _, err := l.time("controlplane.tick_heal", -1, call("/v1/control/tick", struct{}{})); err != nil {
			return err
		}
		if err := call("/v1/hosts/uncordon", host)(); err != nil {
			return err
		}
	}
	l.flush()
	v["controlplane.deploy_ms"] = l.us("controlplane.deploy") / 1e3
	v["controlplane.tick_idle_us"] = l.us("controlplane.tick_idle")
	v["controlplane.tick_heal_ms"] = l.us("controlplane.tick_heal") / 1e3
	return nil
}

// probeFleet runs the crash cascade with the default oracle predictor
// (simulator and engine only) and with the model.
func probeFleet(f *fixture, l *ladder, p params, v map[string]float64) error {
	l.use(heavyUnit)
	sc, err := costream.LoadFleetScenario(fleetScenarioPath)
	if err != nil {
		return err
	}
	var rep *costream.FleetReport
	run := func(opts costream.FleetRunOptions) func() error {
		return func() (err error) {
			rep, err = costream.RunFleetScenario(context.Background(), sc, opts)
			return err
		}
	}
	for i := 0; i < max(2, int(p.seconds/2)); i++ {
		l.op++
		outer, err := l.time("fleet.run_model", -1, run(costream.FleetRunOptions{Predictor: f.model.Predictor()}))
		if err != nil {
			return err
		}
		if _, err := l.time("fleet.run_oracle", outer, run(costream.FleetRunOptions{})); err != nil {
			return err
		}
	}
	l.flush()
	v["fleet.run_model_ms"] = l.us("fleet.run_model") / 1e3
	v["fleet.run_oracle_ms"] = l.us("fleet.run_oracle") / 1e3
	v["fleet.model_share"] = 1 - l.us("fleet.run_oracle")/l.us("fleet.run_model")
	v["fleet.events_per_run"] = float64(rep.Totals.Events)
	v["fleet.migrations_per_run"] = float64(rep.Totals.Migrations)
	v["fleet.replacements_per_run"] = float64(rep.Totals.Replacements)
	return nil
}

// probeRest times the simulator and the metrics scrape.
func probeRest(f *fixture, l *ladder, p params, v map[string]float64) error {
	l.use(lightUnit)
	for i := 0; i < ladderSize(p); i++ {
		l.op++
		pr := f.pool.predict[i%len(f.pool.predict)]
		pl, err := costream.HeuristicPlacement(pr.q, pr.c, p.seed+int64(i))
		if err != nil {
			return err
		}
		if _, err := l.time("sim.execute", -1, func() error {
			_, err := costream.Execute(pr.q, pr.c, pl)
			return err
		}); err != nil {
			return err
		}
	}
	var s scrape
	for i := 0; i < max(4, int(p.seconds*2)); i++ {
		l.op++
		if _, err := l.time("obs.metrics_scrape", -1, func() (err error) { s, err = f.scrape(); return err }); err != nil {
			return err
		}
	}
	l.flush()
	v["sim.execute_us"] = l.us("sim.execute")
	v["obs.metrics_scrape_us"] = l.us("obs.metrics_scrape")
	v["obs.metrics_bytes"] = float64(s.bytes)
	return nil
}
