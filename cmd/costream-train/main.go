// Command costream-train trains COSTREAM cost models on a corpus written
// by costream-datagen and saves the full predictor — every metric's
// ensemble with GNN weights, featurizer state and provenance — as one
// versioned model artifact loadable by costream-serve, costream-eval,
// costream-optimize and costream.LoadModel.
//
// -corpus names a corpus store directory. The corpus is streamed — split
// by index and featurized one trace at a time — so training never
// materializes the full trace set in memory; the trained weights are
// bit-identical to training on the same traces in memory, at any GOMAXPROCS.
//
// Usage:
//
//	costream-train -corpus corpus/ -out model.costream                        # all five metrics
//	costream-train -corpus corpus/ -metrics e2e-latency,success ...          # a subset
//	costream-train -corpus corpus/ -runlog train.jsonl                       # per-epoch telemetry
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"costream/internal/artifact"
	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("costream-train: ")
	// Errors return out of run so its defers — notably flushing the CPU
	// profile — execute before the fatal exit.
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		corpusPath = flag.String("corpus", "corpus", "training corpus store directory")
		metricList = flag.String("metrics", "all", `metrics to train: "all" or a comma-separated subset of throughput,proc-latency,e2e-latency,backpressure,success`)
		out        = flag.String("out", "model.costream", "output artifact path")
		epochs     = flag.Int("epochs", 45, "training epochs")
		hidden     = flag.Int("hidden", 32, "GNN hidden width")
		lr         = flag.Float64("lr", 3e-3, "learning rate")
		ensemble   = flag.Int("ensemble", 3, "models per metric")
		seed       = flag.Int64("seed", 1, "random seed")
		note       = flag.String("note", "", "free-form provenance note stored in the artifact")
		verbose    = flag.Bool("v", false, "log per-epoch losses")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		runlogPath = flag.String("runlog", "", "append one JSON line per training epoch (metric, member, epoch, losses, duration) to this file")
		pprofAddr  = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty disables; keep it private)")
	)
	flag.Parse()
	obs.StartPprof(*pprofAddr, log.Printf)

	if *ensemble < 1 {
		return fmt.Errorf("-ensemble must be at least 1, got %d", *ensemble)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	src, err := dataset.OpenStore(*corpusPath)
	if err != nil {
		return err
	}
	trainIdx, valIdx, _ := dataset.SplitIndices(src.Len(), 0.8, 0.1, *seed)
	cfg := core.DefaultTrainConfig(*seed)
	cfg.Epochs = *epochs
	cfg.Hidden = *hidden
	cfg.LR = *lr
	if *verbose {
		cfg.Logf = func(format string, args ...any) { log.Printf(format, args...) }
	}
	if *runlogPath != "" {
		rl, err := obs.OpenRunLog(*runlogPath)
		if err != nil {
			return err
		}
		defer rl.Close()
		// The observer runs on the goroutine of every concurrently
		// training fit; RunLog.Write is concurrency-safe. Write errors
		// past the first epoch are rare (disk full), so surface them
		// without aborting training.
		cfg.Observer = func(es core.EpochStats) {
			if err := rl.Write(es); err != nil {
				log.Printf("runlog write: %v", err)
			}
		}
	}

	var metrics []core.Metric
	if *metricList == "all" {
		metrics = core.AllMetrics()
	} else {
		for _, name := range strings.Split(*metricList, ",") {
			m, err := core.ParseMetric(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			metrics = append(metrics, m)
		}
	}

	start := time.Now()
	pred, err := core.TrainPredictorSource(src, trainIdx, valIdx, core.PredictorConfig{
		Train:        cfg,
		EnsembleSize: *ensemble,
		Metrics:      metrics,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Second)

	members, width := pred.Shape()
	prov := artifact.Provenance{
		CreatedAt:    time.Now().UTC(),
		TrainSeed:    *seed,
		CorpusSize:   src.Len(),
		Epochs:       *epochs,
		EnsembleSize: members,
		Hidden:       width,
		Note:         *note,
	}
	if err := artifact.Save(*out, pred, prov); err != nil {
		return err
	}
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.String()
	}
	fmt.Printf("trained %d metric(s) [%s] x %d members on %d traces in %v -> %s\n",
		len(metrics), strings.Join(names, ", "), members, len(trainIdx), elapsed, *out)
	return nil
}
