// Command costream-optimize demonstrates the full placement workflow on a
// randomly drawn IoT scenario: it obtains a COSTREAM model (loading a
// saved artifact, or training a small one from scratch), draws a query
// and an edge-cloud cluster, runs every placement search strategy under
// one shared candidate budget (printing a comparison table), and verifies
// the chosen strategy's decision by executing initial vs optimized
// placement in the simulator.
//
// Usage:
//
//	costream-optimize -seed 7 -traces 800 -budget 64
//	costream-optimize -model model.costream -strategy beam -beam 8
//	costream-optimize -model model.costream -strategy exhaustive -budget 512
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"costream"
	"costream/internal/obs"
	"costream/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("costream-optimize: ")
	var (
		seed      = flag.Int64("seed", 7, "random seed for query/cluster/model")
		traces    = flag.Int("traces", 800, "training corpus size")
		budget    = flag.Int("budget", 16, "search budget: max distinct placements scored")
		rounds    = flag.Int("rounds", 0, "max generate->score->prune rounds (0 = unlimited); a local-search round scores one neighbourhood, the first also its climb's start")
		strategy  = flag.String("strategy", "local-search", "search strategy for the final decision: random | exhaustive | beam | local-search")
		beamWidth = flag.Int("beam", 8, "beam width for the beam strategy")
		epochs    = flag.Int("epochs", 25, "training epochs")
		modelPath = flag.String("model", "", "load a saved model artifact instead of training")
		saveModel = flag.String("save-model", "", "save the trained model as an artifact for reuse")
		trace     = flag.Bool("trace", false, "print per-round search telemetry for every strategy")
		pprofAddr = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty disables; keep it private)")
	)
	flag.Parse()
	obs.StartPprof(*pprofAddr, log.Printf)
	if *budget <= 0 {
		log.Fatalf("-budget must be positive, got %d", *budget)
	}
	if *rounds < 0 {
		log.Fatalf("-rounds must be 0 (unlimited) or positive, got %d", *rounds)
	}
	if s, err := costream.ParseSearchStrategy(*strategy); err != nil {
		log.Fatal(err)
	} else {
		// Normalize aliases ("local", "hill-climb", ...) to the
		// canonical name the comparison loop selects by.
		*strategy = s.Name()
	}

	var model *costream.Model
	if *modelPath != "" {
		var err error
		model, err = costream.LoadModel(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		info := model.Info()
		fmt.Printf("loaded model %s (trained seed=%d corpus=%d epochs=%d)\n",
			*modelPath, info.TrainSeed, info.CorpusSize, info.Epochs)
	} else {
		fmt.Printf("generating %d training traces...\n", *traces)
		corpus, err := costream.GenerateCorpus(*traces, *seed)
		if err != nil {
			log.Fatal(err)
		}
		opts := costream.DefaultTrainOptions()
		opts.Epochs = *epochs
		opts.Seed = *seed
		start := time.Now()
		fmt.Println("training COSTREAM ensembles (5 metrics x 3 seeds)...")
		model, err = costream.TrainModel(corpus, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained in %v\n", time.Since(start).Round(time.Second))
	}
	// Applies to trained and loaded models alike (-model + -save-model
	// re-saves, e.g. to recompress or copy an artifact).
	if *saveModel != "" {
		if err := model.Save(*saveModel); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved model artifact to %s\n", *saveModel)
	}
	fmt.Println()

	gen := workload.New(workload.DefaultConfig(*seed + 1))
	q := gen.Query().Query()
	cluster := gen.Cluster()
	fmt.Printf("query: %s with %d operators\n", q.Class(), q.NumOps())
	fmt.Printf("cluster: %d hosts\n", cluster.NumHosts())
	for _, h := range cluster.Hosts {
		fmt.Printf("  %-8s cpu=%4.0f%% ram=%6.0fMB bw=%6.0fMbit lat=%3.0fms\n",
			h.ID, h.CPU, h.RAMMB, h.NetBandwidthMbps, h.NetLatencyMS)
	}

	initial, err := costream.HeuristicPlacement(q, cluster, *seed+2)
	if err != nil {
		log.Fatal(err)
	}

	// Run every strategy under the same budget and seed; the comparison
	// table shows what the search engine buys over blind sampling.
	searchBudget := costream.SearchBudget{MaxCandidates: *budget, MaxRounds: *rounds}
	newStrategy := func(name string) costream.SearchStrategy {
		if name == "beam" {
			return costream.BeamStrategy{Width: *beamWidth}
		}
		s, err := costream.ParseSearchStrategy(name)
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	fmt.Printf("\nsearch strategies under a shared budget of %d candidates (objective: %v):\n",
		*budget, costream.MinProcLatency)
	fmt.Printf("  %-13s %12s %9s %7s %9s %10s\n",
		"strategy", "pred Lp(ms)", "examined", "rounds", "filtered", "time")
	var chosen *costream.SearchResult
	for _, name := range costream.SearchStrategyNames() {
		t0 := time.Now()
		res, err := model.OptimizePlacementSearchCtx(context.Background(), q, cluster, newStrategy(name),
			costream.MinProcLatency, searchBudget,
			costream.SearchOpts{Seed: *seed + 3, Telemetry: *trace})
		if err != nil {
			fmt.Printf("  %-13s failed: %v\n", name, err)
			continue
		}
		note := ""
		if res.Complete {
			note = "  (complete)"
		}
		fmt.Printf("  %-13s %12.1f %9d %7d %9d %10v%s\n",
			name, res.Costs.ProcLatencyMS, res.Examined, res.Rounds, res.Filtered,
			time.Since(t0).Round(time.Millisecond), note)
		if *trace {
			printTrace(res.Telemetry)
		}
		if name == *strategy {
			chosen = res
		}
	}
	if chosen == nil {
		log.Fatalf("strategy %q produced no result", *strategy)
	}

	best, predicted := chosen.Placement, chosen.Costs
	fmt.Printf("\nheuristic initial placement: %v\n", initial)
	fmt.Printf("optimized placement (%s):    %v\n", chosen.Strategy, best)
	fmt.Printf("predicted costs: Lp=%.1fms Le=%.1fms T=%.1f ev/s success=%v backpressure=%v\n",
		predicted.ProcLatencyMS, predicted.E2ELatencyMS, predicted.ThroughputTPS,
		predicted.Success, predicted.Backpressured)

	mInit, err := costream.Execute(q, cluster, initial)
	if err != nil {
		log.Fatal(err)
	}
	mBest, err := costream.Execute(q, cluster, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured initial:   %v\n", mInit)
	fmt.Printf("measured optimized: %v\n", mBest)
	if mInit.Success && mBest.Success && mBest.ProcLatencyMS > 0 {
		fmt.Printf("speed-up: %.2fx in processing latency\n", mInit.ProcLatencyMS/mBest.ProcLatencyMS)
	}
}

// printTrace renders one strategy's per-round telemetry as an indented
// sub-table under its comparison row.
func printTrace(rounds []costream.SearchRoundStats) {
	if len(rounds) == 0 {
		return
	}
	fmt.Printf("      %5s %6s %6s %5s %5s %8s %12s %10s\n",
		"round", "submit", "fresh", "dup", "filt", "best", "score", "time")
	for _, rs := range rounds {
		fmt.Printf("      %5d %6d %6d %5d %5d %8d %12.4f %10v\n",
			rs.Round, rs.Submitted, rs.Fresh, rs.Duplicates, rs.Filtered,
			rs.BestIndex, rs.BestScore, time.Duration(rs.ElapsedNS).Round(time.Microsecond))
	}
}
