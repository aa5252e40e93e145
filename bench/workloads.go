package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	"costream"
)

// workload is one traffic mix. The counts fix the work of a round; they
// are sized so that a round takes about a third of a second on the
// machine the benchmark was defined on and the reference calls about a
// third of that.
type workload struct {
	name, why   string
	opsPerRound int
	ref         refUnit // reference work after every op
	tailPct     float64 // highest percentile a run's sample supports
	roundS      float64 // nominal round duration; turns -seconds into a round count
	start       func(f *fixture, seed int64, opsPerRound int) (driver, error)
}

// driver issues the ops of one workload. prepare and settle run off the
// clock, before and after every round; r is -1 for the warm-up round.
// Output checks that would cost more than the op they check are deferred
// to settle. Every error returned by op or settle is one failed op.
type driver interface {
	prepare(r, rounds int) error
	op(i int) error
	settle() []error
}

var workloads = []*workload{
	{
		name: "serve-hot",
		why:  "256 predict requests replayed over a socket, all cache hits: the serve envelope does all the work and the model none",
		// five passes over the working set
		opsPerRound: 1280, ref: refUnit{4, 8, 1}, tailPct: 95, roundS: 0.33, start: startServeHot,
	},
	{
		name:        "serve-cold",
		why:         "never-repeated predict requests over a socket, all cache misses: featurize and the GNN kernel do the work, the envelope little",
		opsPerRound: 256, ref: refUnit{28, 3, 1}, tailPct: 95, roundS: 0.33, start: startServeCold,
	},
	{
		name:        "optimize-search",
		why:         "four /v1/optimize calls per op, one per strategy, 64 candidates: the tiled inference path plus the placement search engine",
		opsPerRound: 5, ref: refUnit{1400, 4, 1}, tailPct: 90, roundS: 0.33, start: startOptimizeSearch,
	},
	{
		name:        "train-epochs",
		why:         "one TrainModel epoch per op, in process: the tape, backward and Adam path that no serving workload touches",
		opsPerRound: 1, ref: refUnit{11000, 0, 2}, tailPct: 80, roundS: 0.27, start: startTrainEpochs,
	},
	{
		name:        "fleet-cascade",
		why:         "one 220-host crash-cascade fleet run per op, in process: control-plane policy, warm-started re-search and the simulator, no serve envelope",
		opsPerRound: 7, ref: refUnit{1300, 0, 1}, tailPct: 80, roundS: 0.33, start: startFleetCascade,
	},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Wire shapes, written out here so that the benchmark depends on the
// service's JSON and not on its Go types.
type predictBody struct {
	Query     *costream.Query    `json:"query"`
	Cluster   *costream.Cluster  `json:"cluster"`
	Placement costream.Placement `json:"placement"`
}

type optimizeBody struct {
	Query      *costream.Query   `json:"query"`
	Cluster    *costream.Cluster `json:"cluster"`
	Candidates int               `json:"candidates"`
	Strategy   string            `json:"strategy"`
	Seed       int64             `json:"seed"`
}

type wireCosts struct {
	ThroughputTPS float64 `json:"throughput_tps"`
	ProcLatencyMS float64 `json:"proc_latency_ms"`
	E2ELatencyMS  float64 `json:"e2e_latency_ms"`
	Success       bool    `json:"success"`
	Backpressured bool    `json:"backpressured"`
}

func (w wireCosts) equal(c costream.Costs) bool {
	return w.ThroughputTPS == c.ThroughputTPS && w.ProcLatencyMS == c.ProcLatencyMS &&
		w.E2ELatencyMS == c.E2ELatencyMS && w.Success == c.Success && w.Backpressured == c.Backpressured
}

func (w wireCosts) finite() bool {
	for _, v := range []float64{w.ThroughputTPS, w.ProcLatencyMS, w.E2ELatencyMS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

type predictReply struct {
	Costs wireCosts `json:"costs"`
}

type optimizeReply struct {
	Placement costream.Placement `json:"placement"`
	Costs     wireCosts          `json:"costs"`
}

// reply is one HTTP response as the client saw it.
type reply struct {
	status int
	cache  string // X-Costream-Cache
	body   []byte
}

// post sends one request on the fixture's keep-alive connection. The
// returned body aliases buf and is valid until buf is next written.
func (f *fixture) post(path string, body []byte, buf *bytes.Buffer) (reply, error) {
	resp, err := f.client.Post(f.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{resp.StatusCode, resp.Header.Get("X-Costream-Cache"), buf.Bytes()}, nil
}

func (f *fixture) get(path string) ([]byte, error) {
	resp, err := f.client.Get(f.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// predictRequest is a predict request and what it was built from.
type predictRequest struct {
	q    *costream.Query
	c    *costream.Cluster
	p    costream.Placement
	body []byte
}

// newPredictRequest builds the n-th never-repeated request on pr.
func newPredictRequest(pr pair, n int, seed int64) (predictRequest, error) {
	q := variant(pr.q, n)
	p, err := costream.HeuristicPlacement(q, pr.c, seed+int64(n))
	if err != nil {
		return predictRequest{}, fmt.Errorf("drawing a placement: %w", err)
	}
	body, err := json.Marshal(predictBody{q, pr.c, p})
	if err != nil {
		return predictRequest{}, err
	}
	return predictRequest{q, pr.c, p, body}, nil
}

// checkPredict is serve-hot's output check and the status and cache
// part of serve-cold's: status 200, the expected cache outcome and, when
// the request was answered before, the same bytes.
func checkPredict(r reply, wantCache string, first []byte) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if r.cache != wantCache {
		return fmt.Errorf("X-Costream-Cache %q, want %q", r.cache, wantCache)
	}
	if first != nil && !bytes.Equal(r.body, first) {
		return fmt.Errorf("response differs from the first one for this request")
	}
	return nil
}

// serve-hot

const hotWorkingSet = 256

type serveHot struct {
	f     *fixture
	reqs  []predictRequest
	first [][]byte // first response per request
	next  int
	buf   bytes.Buffer
}

func startServeHot(f *fixture, seed int64, _ int) (driver, error) {
	d := &serveHot{f: f, first: make([][]byte, hotWorkingSet)}
	for n := 0; n < hotWorkingSet; n++ {
		req, err := newPredictRequest(f.pool.predict[n%len(f.pool.predict)], n, seed)
		if err != nil {
			return nil, err
		}
		d.reqs = append(d.reqs, req)
	}
	return d, nil
}

func (d *serveHot) prepare(r, rounds int) error { return nil }
func (d *serveHot) settle() []error             { return nil }

func (d *serveHot) op(i int) error {
	n := d.next % hotWorkingSet
	d.next++
	r, err := d.f.post("/v1/predict", d.reqs[n].body, &d.buf)
	if err != nil {
		return err
	}
	if d.first[n] == nil {
		// The warm-up round fills the cache.
		d.first[n] = bytes.Clone(r.body)
		return checkPredict(r, "miss", nil)
	}
	return checkPredict(r, "hit", d.first[n])
}

// serve-cold

type serveCold struct {
	f       *fixture
	seed    int64
	ops     int
	sent    int // requests built so far; each gets its own variant number
	reqs    []predictRequest
	replies []reply
	buf     bytes.Buffer
}

func startServeCold(f *fixture, seed int64, ops int) (driver, error) {
	return &serveCold{f: f, seed: seed, ops: ops}, nil
}

func (d *serveCold) prepare(r, rounds int) error {
	d.reqs, d.replies = d.reqs[:0], d.replies[:0]
	for i := 0; i < d.ops; i++ {
		// Offset past serve-hot's variants so a traced run that replays
		// both never collides.
		req, err := newPredictRequest(d.f.pool.predict[i%len(d.f.pool.predict)], hotWorkingSet+d.sent, d.seed)
		if err != nil {
			return err
		}
		d.sent++
		d.reqs = append(d.reqs, req)
	}
	return nil
}

func (d *serveCold) op(i int) error {
	r, err := d.f.post("/v1/predict", d.reqs[i].body, &d.buf)
	if err != nil {
		d.replies = append(d.replies, reply{})
		return err
	}
	r.body = bytes.Clone(r.body)
	d.replies = append(d.replies, r)
	return nil
}

// settle checks every reply of the round, and every hundredth against
// the in-process model bit for bit.
func (d *serveCold) settle() []error {
	var errs []error
	for i, r := range d.replies {
		if r.status == 0 {
			continue // the op already failed
		}
		if err := checkColdReply(d.f.model, d.reqs[i], r, i%100 == 0); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func checkColdReply(m *costream.Model, req predictRequest, r reply, compare bool) error {
	if err := checkPredict(r, "miss", nil); err != nil {
		return err
	}
	var pr predictReply
	if err := json.Unmarshal(r.body, &pr); err != nil {
		return fmt.Errorf("decoding predict response: %w", err)
	}
	if !pr.Costs.finite() {
		return fmt.Errorf("non-finite costs %+v", pr.Costs)
	}
	if !compare {
		return nil
	}
	want, err := m.PredictCosts(req.q, req.c, req.p)
	if err != nil {
		return err
	}
	if !pr.Costs.equal(want) {
		return fmt.Errorf("served costs %+v differ from Model.PredictCosts %+v", pr.Costs, want)
	}
	return nil
}

// optimize-search

var strategies = []string{"random", "exhaustive", "beam", "local-search"}

type optimizeSearch struct {
	f       *fixture
	ops     int
	seed    int64
	done    int // ops issued so far; with seed, the search seed
	bodies  [][]byte
	pairs   []pair
	replies []reply
	buf     bytes.Buffer
}

func startOptimizeSearch(f *fixture, seed int64, ops int) (driver, error) {
	return &optimizeSearch{f: f, seed: seed, ops: ops}, nil
}

func (d *optimizeSearch) prepare(r, rounds int) error {
	d.bodies, d.pairs, d.replies = d.bodies[:0], d.pairs[:0], d.replies[:0]
	for i := 0; i < d.ops; i++ {
		pr := d.f.pool.search[d.done%len(d.f.pool.search)]
		for _, s := range strategies {
			body, err := json.Marshal(optimizeBody{pr.q, pr.c, d.f.rec.searchBudget, s, d.seed*1000 + int64(d.done)})
			if err != nil {
				return err
			}
			d.bodies = append(d.bodies, body)
			d.pairs = append(d.pairs, pr)
		}
		d.done++
	}
	return nil
}

func (d *optimizeSearch) op(i int) error {
	var first error
	for s := range strategies {
		r, err := d.f.post("/v1/optimize", d.bodies[i*len(strategies)+s], &d.buf)
		if err != nil && first == nil {
			first = err
		}
		r.body = bytes.Clone(r.body)
		d.replies = append(d.replies, r)
	}
	return first
}

// settle fails an op when any of its four searches fails its check.
func (d *optimizeSearch) settle() []error {
	var errs []error
	for i := 0; i+len(strategies) <= len(d.replies); i += len(strategies) {
		for s := range strategies {
			r := d.replies[i+s]
			if r.status == 0 {
				break // the op already failed
			}
			if err := checkOptimizeReply(d.f.model, d.pairs[i+s], r); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", strategies[s], err))
				break
			}
		}
	}
	return errs
}

func checkOptimizeReply(m *costream.Model, pr pair, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var or optimizeReply
	if err := json.Unmarshal(r.body, &or); err != nil {
		return fmt.Errorf("decoding optimize response: %w", err)
	}
	if err := or.Placement.Validate(pr.q, pr.c); err != nil {
		return fmt.Errorf("returned placement: %w", err)
	}
	want, err := m.PredictCosts(pr.q, pr.c, or.Placement)
	if err != nil {
		return err
	}
	if !or.Costs.equal(want) {
		return fmt.Errorf("returned costs %+v differ from Model.PredictCosts %+v of the returned placement", or.Costs, want)
	}
	return nil
}

// train-epochs

type trainEpochs struct {
	f       *fixture
	seed    int64
	done    int
	opSeed  int64
	model   *costream.Model
	checked [][2]float64 // q-error and speed-up of each model trained with modelSeed
}

func startTrainEpochs(f *fixture, seed int64, _ int) (driver, error) {
	return &trainEpochs{f: f, seed: seed}, nil
}

// prepare picks the op's training seed. The first and the last measured
// op train with modelSeed: the two must give identical quality metrics,
// and the last one's are the ones the run reports, so they do not depend
// on -seed.
func (d *trainEpochs) prepare(r, rounds int) error {
	d.opSeed = d.seed*1000 + int64(d.done)
	if r == 0 || r == rounds-1 {
		d.opSeed = modelSeed
	}
	d.done++
	return nil
}

func (d *trainEpochs) op(i int) error {
	m, err := costream.TrainModel(d.f.corpus, trainOptions(d.f.rec, 1, 1, d.opSeed))
	d.model = m
	return err
}

// quality is what the run reports in place of the fixture's: the quality
// of the model the last op trained.
func (d *trainEpochs) quality() (qerr, speedup float64) {
	if len(d.checked) == 0 {
		return math.NaN(), math.NaN()
	}
	last := d.checked[len(d.checked)-1]
	return last[0], last[1]
}

func (d *trainEpochs) settle() []error {
	if d.model == nil {
		return nil // the op already failed
	}
	if d.opSeed == modelSeed {
		q, s, err := evalQuality(d.model, d.f.rec)
		if err != nil {
			return []error{err}
		}
		d.checked = append(d.checked, [2]float64{q, s})
		if first := d.checked[0]; first != [2]float64{q, s} {
			return []error{fmt.Errorf("same training seed gave quality %v then %v", first, [2]float64{q, s})}
		}
		return nil
	}
	pr := d.f.pool.predict[0]
	p, err := costream.HeuristicPlacement(pr.q, pr.c, d.opSeed)
	if err != nil {
		return []error{err}
	}
	c, err := d.model.PredictCosts(pr.q, pr.c, p)
	if err != nil {
		return []error{err}
	}
	if w := (wireCosts{c.ThroughputTPS, c.ProcLatencyMS, c.E2ELatencyMS, c.Success, c.Backpressured}); !w.finite() {
		return []error{fmt.Errorf("trained model predicts non-finite costs %+v", c)}
	}
	return nil
}

// fleet-cascade

const fleetScenarioPath = "testdata/crashcascade.json"

type fleetCascade struct {
	f       *fixture
	sc      *costream.FleetScenario
	reports []*costream.FleetReport
	hash    [sha256.Size]byte
	hashed  bool
}

func startFleetCascade(f *fixture, _ int64, _ int) (driver, error) {
	sc, err := costream.LoadFleetScenario(fleetScenarioPath)
	if err != nil {
		return nil, err
	}
	return &fleetCascade{f: f, sc: sc}, nil
}

func (d *fleetCascade) prepare(r, rounds int) error {
	d.reports = d.reports[:0]
	return nil
}

func (d *fleetCascade) op(i int) error {
	rep, err := costream.RunFleetScenario(context.Background(), d.sc,
		costream.FleetRunOptions{Predictor: d.f.model.Predictor()})
	if err != nil {
		return err
	}
	d.reports = append(d.reports, rep)
	return nil
}

func (d *fleetCascade) settle() []error {
	var errs []error
	for _, rep := range d.reports {
		if err := d.check(rep); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (d *fleetCascade) check(rep *costream.FleetReport) error {
	if !rep.Pass {
		return fmt.Errorf("fleet report has \"pass\": false")
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	h := sha256.Sum256(b)
	if !d.hashed {
		d.hash, d.hashed = h, true
	} else if h != d.hash {
		return fmt.Errorf("fleet report differs from the first op's")
	}
	return nil
}
