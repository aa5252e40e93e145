package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// child runs this binary once on one workload and returns its result and
// every "metric" line it printed.
func child(w string, seed int64, seconds float64, trace bool) (*result, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w\n%s", w, err, errOut.Bytes())
	}
	printed := map[string]float64{}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 4 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				printed[f[1]] = v
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("%s: result line: %w", w, err)
	}
	return &res, printed, nil
}

// runAll is `bench -all`: every workload untraced and traced, each in a
// process of its own, every metric printed by name with its unit. It
// returns the exit code: 1 when an output check failed anywhere.
func runAll(seed int64, seconds float64) int {
	code := 0
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := child(w.name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			kind := "end-to-end"
			if trace {
				kind = "per-layer"
			}
			fmt.Printf("== %s, %s (seed %d)\n", w.name, kind, seed)
			res.printTable(os.Stdout)
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// rawTwin names the un-normalised figure printed next to a gated timing.
var rawTwin = map[string]string{
	"throughput_norm_ops_s": "raw.throughput_ops_s",
	"latency_p50_norm_ms":   "raw.latency_p50_ms",
	"cpu_norm_ms_per_op":    "raw.cpu_ms_per_op",
}

// selfcheck is `bench selfcheck`: an A/A test of the benchmark itself.
// Every workload is run as two alternating sets of runs of this same
// binary; for every end-to-end metric it prints both medians, their
// difference against the metric's bound, and the spread of the runs, raw
// next to normalised. It returns 1 when two medians of the same code
// differ by more than the bound.
func selfcheck(args []string) int {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	runs := fs.Int("runs", 5, "runs per set")
	seed := fs.Int64("seed", devSeed, "seed of the first run of each set; run i uses seed+i")
	seconds := fs.Float64("seconds", 10, "nominal measuring time of each run")
	only := fs.String("workloads", "", "comma-separated subset of workloads (default all)")
	fs.Parse(args)

	type key struct {
		w, metric string
		set       int
	}
	values := map[key][]float64{}
	var names []string
	for _, w := range workloads {
		if *only == "" || strings.Contains(","+*only+",", ","+w.name+",") {
			names = append(names, w.name)
		}
	}
	// Sets and workloads alternate inside the loop over runs, so that
	// each set of each workload is spread over the whole session.
	for i := 0; i < *runs; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range names {
				res, printed, err := child(w, *seed+int64(i), *seconds, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed\n", w, res.Failed, res.Attempted)
					return 1
				}
				for m, v := range printed {
					values[key{w, m, set}] = append(values[key{w, m, set}], v)
				}
				fmt.Fprintf(os.Stderr, "bench: selfcheck run %d/%d set %c %s done\n", i+1, *runs, 'A'+set, w)
			}
		}
	}

	code := 0
	fmt.Printf("A/A self-check: %d runs per set, seeds %d..%d, %g s per run\n\n", *runs, *seed, *seed+int64(*runs)-1, *seconds)
	fmt.Println("| workload | metric | median A | median B | A vs B | bound | spread (IQR/median) | range ((max-min)/median) | raw range |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range names {
		for _, d := range endToEnd {
			a, b := values[key{w, d.Name, 0}], values[key{w, d.Name, 1}]
			ma, mb := median(a), median(b)
			// Worse is up for "lower", down for "higher".
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if math.Abs(worse) > d.Bound {
				verdict = "FAIL"
				code = 1
			}
			both := append(append([]float64(nil), a...), b...)
			raw := "-"
			if twin, ok := rawTwin[d.Name]; ok {
				rv := append(append([]float64(nil), values[key{w, twin, 0}]...), values[key{w, twin, 1}]...)
				raw = fmt.Sprintf("%.1f%%", 100*spreadRange(rv))
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %+.2f%% %s | %.0f%% | %.2f%% | %.2f%% | %s |\n",
				w, d.Name, ma, mb, 100*worse, verdict, 100*d.Bound, 100*spreadIQR(both), 100*spreadRange(both), raw)
		}
	}
	return code
}

// spreadIQR is the distance between the first and the third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives.
func spreadIQR(xs []float64) float64 {
	return (exclusiveQuantile(xs, 0.75) - exclusiveQuantile(xs, 0.25)) / median(xs)
}

func spreadRange(xs []float64) float64 {
	return (percentile(xs, 100) - percentile(xs, 0)) / median(xs)
}

// exclusiveQuantile is the "exclusive" method: position q*(n+1) in the
// sorted sample, clamped to it.
func exclusiveQuantile(xs []float64, q float64) float64 {
	n := float64(len(xs))
	pos := math.Min(math.Max(q*(n+1)-1, 0), n-1)
	return percentile(xs, 100*pos/(n-1))
}
