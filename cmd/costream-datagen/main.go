// Command costream-datagen generates a cost-estimation benchmark corpus
// (Section VI of the paper): queries sampled from a named scenario's
// feature grids, executed on simulated heterogeneous hardware under
// random heuristic placements, with the measured cost metrics as labels.
//
// Output is a corpus store: a directory of gzip JSONL shard files plus a
// manifest. Builds write each shard to disk as soon as it is complete,
// resume after interruption (-resume rebuilds only missing shards), and
// grow in place (-append adds traces); the traces are the same however
// many shards the store has.
//
// Usage:
//
//	costream-datagen -n 2400 -seed 42                                   # one shard, in corpus/
//	costream-datagen -n 30000 -seed 42 -shards 64 -out corpus/          # 64 shards
//	costream-datagen -out corpus/ -resume                               # finish an interrupted build
//	costream-datagen -out corpus/ -append 10000                        # grow by 10k traces
//	costream-datagen -scenario edge-heavy -n 5000 -shards 16 -out edge/
//	costream-datagen -list                                              # known scenarios
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"costream/internal/dataset"
	"costream/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("costream-datagen: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 2400, "number of traces to generate")
		seed     = flag.Int64("seed", 42, "random seed")
		out      = flag.String("out", "corpus", "output corpus store directory")
		scenName = flag.String("scenario", "training", "corpus recipe; see -list")
		duration = flag.Float64("duration", 120, "simulated execution seconds per query")
		shards   = flag.Int("shards", 1, "split the corpus into this many shards")
		resume   = flag.Bool("resume", false, "resume an interrupted build: rebuild only missing shards, using the recipe recorded in the manifest")
		appendN  = flag.Int("append", 0, "grow an existing store by this many traces (implies the manifest's recipe)")
		list     = flag.Bool("list", false, "list known scenarios and exit")
		quiet    = flag.Bool("q", false, "suppress per-shard progress output")
	)
	flag.Parse()

	if *list {
		for _, s := range scenario.All() {
			fmt.Printf("%-18s %s\n", s.Name, s.Description)
		}
		return nil
	}

	start := time.Now()
	progress := log.Printf
	if *quiet {
		progress = func(string, ...any) {}
	}

	// Resume and append reuse the recipe recorded in the manifest — the
	// scenario, seed, shard size and simulation window all must match for
	// old and new shards to form one coherent corpus. Recipe flags passed
	// explicitly alongside -resume/-append must therefore agree with the
	// manifest; a silent override would corrupt the corpus's identity.
	if *resume || *appendN > 0 {
		st, err := dataset.OpenStore(*out)
		if err != nil {
			return fmt.Errorf("-resume/-append need an existing corpus store: %w", err)
		}
		man := st.Manifest
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		switch {
		case set["seed"] && *seed != man.Seed:
			return fmt.Errorf("-seed %d conflicts with the manifest recipe (seed %d); resumed builds keep the recorded recipe", *seed, man.Seed)
		case set["scenario"] && *scenName != man.Scenario:
			return fmt.Errorf("-scenario %s conflicts with the manifest recipe (%s); resumed builds keep the recorded recipe", *scenName, man.Scenario)
		case set["duration"] && man.SimDurationS > 0 && *duration != man.SimDurationS:
			return fmt.Errorf("-duration %g conflicts with the manifest recipe (%gs); resumed builds keep the recorded recipe", *duration, man.SimDurationS)
		case set["n"] && *n != man.N:
			return fmt.Errorf("-n %d conflicts with the manifest's %d traces; use -append to grow a store", *n, man.N)
		case set["shards"]:
			return fmt.Errorf("-shards cannot change on resume; the store uses shard size %d", man.ShardSize)
		}
		if man.Scenario == "" {
			return fmt.Errorf("store %s records no scenario; it cannot be resumed by name", *out)
		}
		sc, err := scenario.Get(man.Scenario)
		if err != nil {
			return err
		}
		total := man.N + *appendN
		cfg := sc.Make(total, man.Seed)
		if man.SimDurationS > 0 {
			cfg.Sim.DurationS = man.SimDurationS
		}
		progress("resuming %s: scenario=%s seed=%d n=%d (+%d) shard-size=%d",
			*out, man.Scenario, man.Seed, total, *appendN, man.ShardSize)
		st2, err := dataset.StreamBuild(cfg, dataset.StreamConfig{
			Dir:      *out,
			Scenario: man.Scenario,
			Resume:   true,
			Progress: progress,
		})
		if err != nil {
			return err
		}
		report(st2.Summarize(), *out, start)
		return nil
	}

	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	}
	sc, err := scenario.Get(*scenName)
	if err != nil {
		return err
	}
	cfg := sc.Make(*n, *seed)
	cfg.Sim.DurationS = *duration
	if err := cfg.Sim.Validate(); err != nil {
		return fmt.Errorf("-duration %g: %w", *duration, err)
	}
	st, err := dataset.StreamBuild(cfg, dataset.StreamConfig{
		Dir:       *out,
		ShardSize: (*n + *shards - 1) / *shards,
		Scenario:  sc.Name,
		Progress:  progress,
	})
	if err != nil {
		return err
	}
	report(st.Summarize(), *out, start)
	return nil
}

func report(st dataset.Stats, out string, start time.Time) {
	fmt.Printf("wrote %d traces to %s in %v\n", st.N, out, time.Since(start).Round(time.Millisecond))
	fmt.Printf("success rate      %.1f%%\n", 100*st.SuccessRate)
	fmt.Printf("backpressure rate %.1f%%\n", 100*st.BackpressRate)
	fmt.Printf("crash rate        %.1f%%\n", 100*st.CrashRate)
	fmt.Printf("median throughput %.1f ev/s, Lp %.1f ms, Le %.1f ms\n", st.MedianT, st.MedianLpMS, st.MedianLeMS)
}
