// Command costream-sim runs a fleet failure-injection scenario: it
// instantiates the declared host fleet, deploys the workload with the
// placement search engine, walks the timed failure-event script with a
// self-healing recovery loop (observed-vs-predicted q-error drift
// detection, hysteresis-gated re-placement) and grades the end-state
// assertions.
//
//	costream-sim run scenario.json
//	costream-sim run -o report.json scenario.json
//	costream-sim run -model model.costream scenario.json
//
// The JSON report (stdout, or -o) carries the event timeline, per-query
// q-error trajectories, every recovery action with its reason, and the
// assertion outcomes. Reports are byte-identical for a fixed scenario.
// Exit status: 0 when all assertions pass, 1 when any fails, 2 on usage
// or scenario errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"costream"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "run" {
		usage()
		os.Exit(2)
	}
	fs := flag.NewFlagSet("costream-sim run", flag.ExitOnError)
	var (
		out   = fs.String("o", "", "write the JSON report here (default stdout)")
		model = fs.String("model", "", "trained model artifact to predict costs (default: simulator oracle)")
		quiet = fs.Bool("q", false, "suppress progress logging on stderr")
	)
	fs.Usage = usage
	fs.Parse(os.Args[2:])
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	if err := run(fs.Arg(0), *out, *model, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "costream-sim:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: costream-sim run [-o report.json] [-model model.costream] [-q] <scenario.json>`)
}

func run(scenarioPath, outPath, modelPath string, quiet bool) error {
	sc, err := costream.LoadFleetScenario(scenarioPath)
	if err != nil {
		return err
	}
	var opts costream.FleetRunOptions
	if !quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if modelPath != "" {
		m, err := costream.LoadModel(modelPath)
		if err != nil {
			return err
		}
		opts.Predictor = m.Predictor()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := costream.RunFleetScenario(ctx, sc, opts)
	if err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}

	if !rep.Pass {
		for _, a := range rep.Assertions {
			if !a.Pass {
				fmt.Fprintf(os.Stderr, "costream-sim: assertion %s failed: %s\n", a.Name, a.Detail)
			}
		}
		os.Exit(1)
	}
	return nil
}
