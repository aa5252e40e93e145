// Command costream-bench turns `go test -bench` output into a small
// JSON record and gates CI on it.
//
// Parse benchmark output (stdin or a file) into BENCH JSON:
//
//	go test -run XXX -bench . -benchtime 3x . | costream-bench -parse - -out BENCH_pr.json
//
// Compare a fresh run against a committed baseline, failing (exit 1)
// with a per-benchmark diff when ns/op or allocs/op regress by more
// than the tolerance:
//
//	costream-bench -compare BENCH_10.json -new BENCH_pr.json -tolerance 0.20
//
// Baseline entries may be flat measurements or {"before": ..., "after":
// ...} pairs as committed in BENCH_<pr>.json; compare uses "after". A
// baseline entry's "tolerance" field overrides the global -tolerance for
// that benchmark. -summary appends the diff as a markdown table to a
// file (CI points it at $GITHUB_STEP_SUMMARY). Benchmarks only in the new
// run are ignored, so machine-dependent sub-benchmarks (e.g. workers=N
// fan-outs) don't have to match across environments; a baseline
// benchmark the new run lacks fails the compare, named, so a renamed or
// deleted benchmark cannot leave its gate silently unchecked.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		parse     = flag.String("parse", "", "parse `go test -bench` output from this file ('-' = stdin) into JSON")
		out       = flag.String("out", "", "write parsed JSON here (default stdout)")
		baseline  = flag.String("compare", "", "baseline BENCH JSON to compare against")
		fresh     = flag.String("new", "", "freshly parsed BENCH JSON (with -compare)")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional regression in ns/op and allocs/op (baseline entries may override per benchmark)")
		summary   = flag.String("summary", "", "append a markdown diff table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()
	switch {
	case *parse != "":
		if err := runParse(*parse, *out); err != nil {
			fmt.Fprintln(os.Stderr, "costream-bench:", err)
			os.Exit(1)
		}
	case *baseline != "":
		ok, err := runCompare(*baseline, *fresh, *tolerance, *summary)
		if err != nil {
			fmt.Fprintln(os.Stderr, "costream-bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runParse(in, out string) error {
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	file, err := ParseBench(r)
	if err != nil {
		return err
	}
	if len(file.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", in)
	}
	file.Provenance = collectProvenance()
	data, err := file.Marshal()
	if err != nil {
		return err
	}
	if out == "" || out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func runCompare(basePath, newPath string, tol float64, summaryPath string) (bool, error) {
	if newPath == "" {
		return false, fmt.Errorf("-compare requires -new")
	}
	base, err := LoadBench(basePath)
	if err != nil {
		return false, fmt.Errorf("baseline %s: %w", basePath, err)
	}
	cur, err := LoadBench(newPath)
	if err != nil {
		return false, fmt.Errorf("new %s: %w", newPath, err)
	}
	var names, missing []string
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; ok {
			names = append(names, name)
		} else {
			missing = append(missing, name)
		}
	}
	sort.Strings(names)
	sort.Strings(missing)
	ok := len(missing) == 0
	var md strings.Builder
	fmt.Fprintf(&md, "### Benchmark diff vs `%s`\n\n", basePath)
	md.WriteString("| benchmark | ns/op | Δ ns/op | allocs/op | tol | status |\n")
	md.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, name := range names {
		be := base.Benchmarks[name]
		b, c := be.Current(), cur.Benchmarks[name].Current()
		t := tol
		if be.Tolerance != nil {
			t = *be.Tolerance
		}
		nsBad := c.NsPerOp > b.NsPerOp*(1+t)
		allocBad := float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+t)
		status := "ok"
		if nsBad || allocBad {
			status = "REGRESSION"
			ok = false
		}
		delta := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		fmt.Printf("%-40s %12.0f -> %12.0f ns/op (%+.1f%%)  %6d -> %6d allocs/op  tol %.0f%%  [%s]\n",
			name, b.NsPerOp, c.NsPerOp, delta, b.AllocsPerOp, c.AllocsPerOp, t*100, status)
		fmt.Fprintf(&md, "| `%s` | %.0f → %.0f | %+.1f%% | %d → %d | %.0f%% | %s |\n",
			name, b.NsPerOp, c.NsPerOp, delta, b.AllocsPerOp, c.AllocsPerOp, t*100, status)
	}
	for _, name := range missing {
		fmt.Printf("%-40s missing from %s  [MISSING]\n", name, newPath)
		fmt.Fprintf(&md, "| `%s` | — | — | — | — | MISSING |\n", name)
	}
	if !ok {
		fmt.Printf("FAIL: regression beyond tolerance or baseline benchmark missing vs %s\n", basePath)
		md.WriteString("\n**FAIL**: regression beyond tolerance or baseline benchmark missing.\n")
	} else {
		fmt.Printf("ok: %d benchmarks within tolerance of %s\n", len(names), basePath)
		fmt.Fprintf(&md, "\nok: %d benchmarks within tolerance.\n", len(names))
	}
	if summaryPath != "" {
		f, err := os.OpenFile(summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return ok, fmt.Errorf("summary %s: %w", summaryPath, err)
		}
		defer f.Close()
		if _, err := f.WriteString(md.String()); err != nil {
			return ok, fmt.Errorf("summary %s: %w", summaryPath, err)
		}
	}
	return ok, nil
}
