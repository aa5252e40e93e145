package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"costream"
	"costream/internal/artifact"
	"costream/internal/serve"
)

// Seeds that do not come from -seed. The model, the quality sets and the
// queries and clusters that requests are about are a fixture of the
// benchmark: the two quality metrics then repeat to the last digit, and
// what an op costs does not depend on which model a seed trained or which
// query it drew (on one query per graph size that alone moved serve-cold
// by 3.7 % between seeds, against 1 % between runs of one seed). -seed
// drives everything else a request is made of: the placements asked
// about, the order and variant numbers, search seeds and training seeds.
const (
	modelSeed   = 99   // optimizeBenchSetup's recipe, so numbers line up with BENCH_10.json
	qualitySeed = 2024 // held-out traces for heldout_qerr_p50 / placement_speedup_p50
	poolSeed    = 4242 // the queries and clusters requests are about
	// failedLatencyMS stands in for the processing latency of an
	// execution that failed, as internal/experiments does for Exp 2a.
	failedLatencyMS = 120_000
)

// recipe sizes the fixture. The tests use a tiny one.
type recipe struct {
	corpusN, epochs, hidden, ensemble int
	qerrTraces, speedupQueries        int
	searchBudget                      int
	poolChunk                         int
}

var fullRecipe = recipe{
	corpusN: 200, epochs: 3, hidden: 24, ensemble: 3,
	qerrTraces: 100, speedupQueries: 12, searchBudget: 64, poolChunk: 250,
}

// fixture is everything a workload runs against: the trained model for
// in-process facade calls, the same model round-tripped through an
// artifact and served on a real listener, and the request subjects.
type fixture struct {
	rec    recipe
	model  *costream.Model
	corpus *costream.Corpus
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	pool   *pool

	qerrP50, speedupP50 float64
	// stage timings of this set-up, reported as per-layer metrics.
	genTracesS, trainS, saveMS, loadMS, artifactKB float64
}

func trainOptions(rec recipe, epochs, ensemble int, seed int64) costream.TrainOptions {
	o := costream.DefaultTrainOptions()
	o.Epochs, o.Hidden, o.EnsembleSize, o.Seed = epochs, rec.hidden, ensemble, seed
	return o
}

// newFixture runs the whole set-up once: corpus, training, artifact save
// and load, server start, request subjects and quality evaluation. dir
// receives the artifact.
func newFixture(rec recipe, p *pool, dir string) (*fixture, error) {
	f := &fixture{rec: rec, pool: p}
	t0 := time.Now()
	corpus, err := costream.GenerateCorpus(rec.corpusN, modelSeed)
	if err != nil {
		return nil, fmt.Errorf("generating training corpus: %w", err)
	}
	f.corpus = corpus
	f.genTracesS = time.Since(t0).Seconds()

	t0 = time.Now()
	f.model, err = costream.TrainModel(corpus, trainOptions(rec, rec.epochs, rec.ensemble, modelSeed))
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	f.trainS = time.Since(t0).Seconds()

	path := filepath.Join(dir, "model.json.gz")
	t0 = time.Now()
	if err := f.model.Save(path); err != nil {
		return nil, fmt.Errorf("saving artifact: %w", err)
	}
	f.saveMS = ms(time.Since(t0))
	if st, err := os.Stat(path); err == nil {
		f.artifactKB = float64(st.Size()) / 1024
	}
	t0 = time.Now()
	pred, prov, err := artifact.Load(path)
	if err != nil {
		return nil, fmt.Errorf("loading artifact: %w", err)
	}
	f.loadMS = ms(time.Since(t0))

	f.srv, err = serve.New(serve.Config{Predictor: pred, ModelInfo: prov})
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	// The timeouts costream-serve sets.
	f.hs = &http.Server{
		Handler:           f.srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	f.served = make(chan error, 1)
	go func() { f.served <- f.hs.Serve(ln) }()
	f.url = "http://" + ln.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}

	if f.qerrP50, f.speedupP50, err = evalQuality(f.model, rec); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops the server and waits until its accept loop has returned.
func (f *fixture) close() {
	f.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.hs.Shutdown(ctx); err != nil {
		f.hs.Close()
	}
	<-f.served
}

// setUp runs the set-up p.setupTimes times and keeps the last fixture;
// the median of the wall times is setup_s.
func setUp(p params, dir string) (*fixture, float64, error) {
	subjects := p.subjects
	if subjects == nil {
		var err error
		if subjects, err = newPool(p.rec); err != nil {
			return nil, 0, err
		}
	}
	var f *fixture
	var secs []float64
	for i := 0; i < p.setupTimes; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = newFixture(p.rec, subjects, dir); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return f, median(secs), nil
}

// evalQuality computes the paper's two claims for model m at toy scale:
// the median q-error of predicted against simulated processing latency,
// and the median speed-up of model-guided placement over the heuristic.
func evalQuality(m *costream.Model, rec recipe) (qerrP50, speedupP50 float64, err error) {
	held, err := costream.GenerateCorpus(rec.qerrTraces, qualitySeed)
	if err != nil {
		return 0, 0, fmt.Errorf("generating held-out corpus: %w", err)
	}
	var qerrs []float64
	for _, tr := range held.Traces {
		if !tr.Metrics.Success || tr.Metrics.ProcLatencyMS <= 0 {
			continue
		}
		c, err := m.PredictCosts(tr.Query, tr.Cluster, tr.Placement)
		if err != nil {
			return 0, 0, fmt.Errorf("predicting held-out trace: %w", err)
		}
		qerrs = append(qerrs, qerror(c.ProcLatencyMS, tr.Metrics.ProcLatencyMS))
	}
	if len(qerrs) == 0 {
		return 0, 0, errors.New("no successful held-out trace to compute a q-error on")
	}
	var speedups []float64
	for i, tr := range held.Traces[:rec.speedupQueries] {
		heur, err := costream.HeuristicPlacement(tr.Query, tr.Cluster, int64(i))
		if err != nil {
			return 0, 0, fmt.Errorf("heuristic placement: %w", err)
		}
		res, err := m.OptimizePlacementSearchCtx(context.Background(), tr.Query, tr.Cluster, nil,
			costream.MinProcLatency, costream.SearchBudget{MaxCandidates: rec.searchBudget},
			costream.SearchOpts{Seed: int64(i), Workers: 1})
		if err != nil {
			return 0, 0, fmt.Errorf("model-guided placement: %w", err)
		}
		hl, err := executedLatency(tr.Query, tr.Cluster, heur)
		if err != nil {
			return 0, 0, err
		}
		ol, err := executedLatency(tr.Query, tr.Cluster, res.Placement)
		if err != nil {
			return 0, 0, err
		}
		speedups = append(speedups, hl/ol)
	}
	return median(qerrs), median(speedups), nil
}

func executedLatency(q *costream.Query, c *costream.Cluster, p costream.Placement) (float64, error) {
	m, err := costream.Execute(q, c, p)
	if err != nil {
		return 0, fmt.Errorf("executing placement: %w", err)
	}
	if !m.Success || m.Crashed {
		return failedLatencyMS, nil
	}
	return math.Max(m.ProcLatencyMS, 1e-3), nil
}

func qerror(pred, actual float64) float64 {
	pred, actual = math.Max(pred, 1e-9), math.Max(actual, 1e-9)
	return math.Max(pred/actual, actual/pred)
}

// pair is one request subject.
type pair struct {
	q *costream.Query
	c *costream.Cluster
}

// pool holds the request subjects. What a request costs depends on the
// size of its graph: the predict pairs cover every (operators, hosts)
// size of the benchmark distribution once, the search pairs all have the
// largest common size, so that search ops are alike.
type pool struct {
	predict []pair // 32 pairs: 3..10 operators x 3..6 hosts
	search  []pair // searchPairs pairs of searchOps operators on searchHosts hosts
}

const (
	minOps, maxOps     = 3, 10
	minHosts, maxHosts = 3, 6
	searchOps          = 8
	searchHosts        = 6
	searchPairs        = 4
)

func newPool(rec recipe) (*pool, error) {
	type size struct{ ops, hosts int }
	bySize := map[size]pair{}
	p := &pool{}
	want := (maxOps - minOps + 1) * (maxHosts - minHosts + 1)
	// Rare sizes need a few hundred traces to turn up; draw chunks from
	// consecutive corpus seeds until every size is filled.
	for chunk := int64(0); len(bySize) < want || len(p.search) < searchPairs; chunk++ {
		if chunk == 40 {
			return nil, fmt.Errorf("request sizes still missing after %d traces", 40*rec.poolChunk)
		}
		c, err := costream.GenerateCorpus(rec.poolChunk, poolSeed+chunk)
		if err != nil {
			return nil, fmt.Errorf("generating request corpus: %w", err)
		}
		for _, tr := range c.Traces {
			s := size{len(tr.Query.Ops), len(tr.Cluster.Hosts)}
			if s.ops < minOps || s.ops > maxOps || s.hosts < minHosts || s.hosts > maxHosts {
				continue
			}
			pr := pair{tr.Query, tr.Cluster}
			if _, ok := bySize[s]; !ok {
				bySize[s] = pr
			} else if s.ops == searchOps && s.hosts == searchHosts && len(p.search) < searchPairs {
				p.search = append(p.search, pr)
			}
		}
	}
	sizes := make([]size, 0, len(bySize))
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool {
		if sizes[i].ops != sizes[j].ops {
			return sizes[i].ops < sizes[j].ops
		}
		return sizes[i].hosts < sizes[j].hosts
	})
	for _, s := range sizes {
		p.predict = append(p.predict, bySize[s])
	}
	return p, nil
}

// variant returns a copy of q that no earlier request used: the first
// source's event rate is moved by n/1024, which changes the request's
// fingerprint and nothing about the work it takes.
func variant(q *costream.Query, n int) *costream.Query {
	v := q.Clone()
	for _, op := range v.Ops {
		if op.EventRate > 0 {
			op.EventRate += float64(n) / 1024
			break
		}
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
