// Benchmarks of the library's hot paths: corpus generation, one
// simulator run, one GNN forward pass, candidate enumeration,
// per-candidate scoring against a tiled search, a search per strategy,
// the crash-cascade fleet scenario and the /v1/predict handler. The
// paper's tables and figures are printed by cmd/costream-expts, which
// runs internal/experiments.
package costream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/fleet"
	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/nn"
	"costream/internal/placement"
	"costream/internal/serve"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// BenchmarkCorpusGeneration measures trace generation + simulated
// execution throughput (the Section VI benchmark collection process).
func BenchmarkCorpusGeneration(b *testing.B) {
	simCfg := sim.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := dataset.Build(dataset.BuildConfig{
			N: 1, Seed: int64(i), Gen: workload.DefaultConfig(int64(i)), Sim: simCfg,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRun measures one simulated query execution.
func BenchmarkSimulatorRun(b *testing.B) {
	gen := workload.New(workload.DefaultConfig(7))
	q := gen.QueryOfClass(2) // 2-way join
	c := gen.Cluster()
	rng := rand.New(rand.NewSource(7))
	p, err := placement.RandomValid(rng, q, c)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(q, c, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGNNForward measures one cost-model forward pass (inference).
func BenchmarkGNNForward(b *testing.B) {
	gen := workload.New(workload.DefaultConfig(8))
	q := gen.QueryOfClass(4) // 3-way join
	c := gen.Cluster()
	rng := rand.New(rand.NewSource(8))
	p, err := placement.RandomValid(rng, q, c)
	if err != nil {
		b.Fatal(err)
	}
	feat := core.Featurizer{}
	g, err := feat.BuildGraph(q, c, p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gnn.DefaultConfig(feat.FeatDims())
	cfg.Hidden = 32
	net, err := gnn.New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := nn.NewTape()
		if _, err := net.Forward(t, g); err != nil {
			b.Fatal(err)
		}
	}
}

// optimizeBench holds the shared fixture of the scoring and search
// benchmarks: a small trained five-metric predictor plus a fixed query,
// cluster and candidate set. Trained once per process.
var (
	optBenchOnce sync.Once
	optBenchErr  error
	optBenchPred *core.Predictor
	optBenchQ    *stream.Query
	optBenchC    *hardware.Cluster
	optBenchCand []sim.Placement
)

func optimizeBenchSetup(b *testing.B) {
	b.Helper()
	optBenchOnce.Do(func() {
		var corpus *dataset.Corpus
		corpus, optBenchErr = dataset.Build(dataset.BuildConfig{
			N: 200, Seed: 99, Gen: workload.DefaultConfig(99), Sim: sim.DefaultConfig(),
		})
		if optBenchErr != nil {
			return
		}
		train, val, _ := corpus.Split(0.8, 0.1, 99)
		cfg := core.DefaultTrainConfig(99)
		cfg.Epochs, cfg.Patience, cfg.Hidden = 3, 0, 24
		optBenchPred, optBenchErr = core.TrainPredictor(train, val, core.PredictorConfig{
			Train: cfg, EnsembleSize: 3,
		})
		if optBenchErr != nil {
			return
		}
		gen := workload.New(workload.DefaultConfig(10))
		optBenchQ = gen.QueryOfClass(4) // 3-way join
		optBenchC = gen.Cluster()
		rng := rand.New(rand.NewSource(10))
		optBenchCand = placement.Enumerate(rng, optBenchQ, optBenchC, 64)
		if len(optBenchCand) == 0 {
			optBenchErr = fmt.Errorf("no placement candidates for benchmark")
		}
	})
	if optBenchErr != nil {
		b.Fatal(optBenchErr)
	}
}

// BenchmarkPredictSerial measures per-candidate scoring: every candidate
// opens its own scoring session (one operator-graph featurization and
// plan per candidate) and runs the packed kernels as a tile of one, so
// nothing is shared between candidates.
func BenchmarkPredictSerial(b *testing.B) {
	optimizeBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range optBenchCand {
			if _, err := placement.PredictOne(optBenchPred, optBenchQ, optBenchC, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSearch measures one full placement search per strategy with
// the real trained five-metric predictor scoring every candidate under a
// 64-candidate budget. The run is dominated by ensemble inference — it is
// the headline search number tracked in the BENCH_*.json perf trajectory.
// Workers is pinned to 1 so ns/op measures kernel cost, not scheduler
// luck.
func BenchmarkSearch(b *testing.B) {
	optimizeBenchSetup(b)
	for _, name := range placement.StrategyNames() {
		strat, err := placement.ParseStrategy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := placement.Search(context.Background(), optBenchPred, optBenchQ, optBenchC, strat,
					placement.MinProcLatency, placement.Budget{MaxCandidates: 64},
					placement.SearchOptions{Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetScenario runs the crash-cascade reference scenario end to
// end — deploy, zone outage, load spike, partial recovery — with the
// trained five-metric predictor scoring every self-healing re-search.
// Workers is pinned to 1 so ns/op tracks scoring cost, not scheduler
// luck; the report is deterministic for any worker count.
func BenchmarkFleetScenario(b *testing.B) {
	optimizeBenchSetup(b)
	sc, err := fleet.Load("examples/crashcascade/scenario.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Run(context.Background(), sc, fleet.RunOptions{
			Predictor: optBenchPred, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Timeline) == 0 {
			b.Fatal("fleet run produced an empty timeline")
		}
	}
}

// BenchmarkPlacementEnumeration measures heuristic candidate generation.
func BenchmarkPlacementEnumeration(b *testing.B) {
	gen := workload.New(workload.DefaultConfig(9))
	q := gen.QueryOfClass(4)
	c := gen.Cluster()
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := placement.Enumerate(rng, q, c, 16); len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkServePredict measures one /v1/predict request through the
// costream-serve HTTP handler stack. "cold" disables the response cache
// so every request runs read, decode, validate, model inference and
// encode; "cached" serves repeats of one request from the LRU, which is
// probed by a digest of the body before any JSON work — the gap is the
// value of caching on a hot serving path.
func BenchmarkServePredict(b *testing.B) {
	optimizeBenchSetup(b)
	body, err := json.Marshal(serve.PredictRequest{
		Query: optBenchQ, Cluster: optBenchC, Placement: optBenchCand[0],
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cacheSize int) {
		b.Helper()
		srv, err := serve.New(serve.Config{Predictor: optBenchPred, CacheSize: cacheSize})
		if err != nil {
			b.Fatal(err)
		}
		// Prime once so the "cached" variant measures pure hits.
		warm := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, warm)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, -1) })
	b.Run("cached", func(b *testing.B) { run(b, 1024) })
}
