// Command costream-expts runs the complete experimental evaluation of the
// paper — every table and figure of Section VII — and prints paper-style
// result tables. Use -scale to trade fidelity for time, and -md to emit a
// Markdown report.
//
// Usage:
//
//	costream-expts -scale 1.0
//	costream-expts -scale 0.25 -md report.md
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"costream/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("costream-expts: ")
	var (
		scale = flag.Float64("scale", 1.0, "experiment scale factor (corpus sizes, epochs)")
		md    = flag.String("md", "", "optional path for a Markdown report")
		quiet = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()

	s := experiments.NewSuite(*scale)
	if !*quiet {
		s.Logf = func(format string, args ...any) { log.Printf(format, args...) }
	}
	start := time.Now()
	tables, err := s.RunAll(os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d experiments in %v (scale %.2f)\n",
		len(tables), time.Since(start).Round(time.Second), *scale)

	if *md != "" {
		var b strings.Builder
		fmt.Fprintf(&b, "# COSTREAM reproduction results (scale %.2f)\n\n", *scale)
		fmt.Fprintf(&b, "Generated by costream-expts in %v.\n\n", time.Since(start).Round(time.Second))
		for _, t := range tables {
			t.WriteMarkdown(&b)
		}
		if err := os.WriteFile(*md, []byte(b.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *md)
	}
}
