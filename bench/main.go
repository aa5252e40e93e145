// Command bench is the repository's benchmark: five fixed-work workloads
// against the trained model, its HTTP service and its fleet simulator,
// reporting end-to-end metrics (untraced run) or per-layer metrics
// (traced run). See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// devSeed is the seed changes are developed on. README.md names the
// held-out seed a claim must also hold on.
const devSeed = 1

// boolArg is a boolean flag that takes its value as the next argument
// ("-trace 1"), the way the benchmark driver passes it.
type boolArg bool

func (b *boolArg) String() string { return strconv.FormatBool(bool(*b)) }
func (b *boolArg) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolArg(v)
	return err
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "selfcheck" {
		os.Exit(selfcheck(os.Args[2:]))
	}
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		all      = flag.Bool("all", false, "run every workload, untraced and traced, each in its own process")
		seed     = flag.Int64("seed", devSeed, "seed of the generated request inputs")
		seconds  = flag.Float64("seconds", 10, "nominal measuring time; fixes the number of rounds")
		jsonOnly = flag.Bool("json", false, "print only the result line")
		trace    boolArg
	)
	flag.Var(&trace, "trace", "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json; 0: untraced run, prints the end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *all {
		os.Exit(runAll(*seed, *seconds))
	}

	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames()))
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }
	if *jsonOnly {
		logf = func(string, ...any) {}
	}
	p := params{w: w, rec: fullRecipe, seed: *seed, seconds: *seconds, setupTimes: 3, logf: logf}
	run := runEndToEnd
	if trace {
		run = runTraced
		p.seconds /= 2 // the other half of the time goes to the ladder
	}
	res, err := run(p)
	if err != nil {
		fatal(err)
	}
	if !*jsonOnly {
		res.printTable(os.Stdout)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printTable prints one "metric <name> <value> <unit>" line per metric,
// the gated or per-layer ones first, then the informational ones.
func (r *result) printTable(f *os.File) {
	for _, m := range []map[string]metricValue{r.Metrics, r.info} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(f, "metric %-34s %16.6f %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	fmt.Fprintf(f, "ops attempted %d, failed %d\n", r.Attempted, r.Failed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
