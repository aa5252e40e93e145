package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sample = `goos: linux
goarch: amd64
pkg: costream
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServePredict/cold-4         	      50	   1103573 ns/op	   24787 B/op	     293 allocs/op
BenchmarkServePredict/cached-4       	      50	     75197 ns/op	   17180 B/op	     138 allocs/op
BenchmarkSearch/random               	       5	  29357219 ns/op	  105323 B/op	     851 allocs/op
PASS
ok  	costream	2.199s
`

func TestParseBench(t *testing.T) {
	f, err := ParseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", f.CPU)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(f.Benchmarks))
	}
	cold := f.Benchmarks["BenchmarkServePredict/cold"]
	if cold == nil {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if cold.NsPerOp != 1103573 || cold.AllocsPerOp != 293 {
		t.Fatalf("cold = %+v", cold.Measurement)
	}
	if rnd := f.Benchmarks["BenchmarkSearch/random"]; rnd == nil || rnd.AllocsPerOp != 851 {
		t.Fatalf("random = %+v", f.Benchmarks["BenchmarkSearch/random"])
	}
}

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareUsesAfterAndGates(t *testing.T) {
	base := writeBench(t, "base.json", `{
	  "benchmarks": {
	    "BenchmarkServePredict/cold": {
	      "before": {"ns_per_op": 1302900, "allocs_per_op": 1863},
	      "after":  {"ns_per_op": 550000,  "allocs_per_op": 293}
	    }
	  }
	}`)
	okRun := writeBench(t, "ok.json", `{
	  "benchmarks": {
	    "BenchmarkServePredict/cold": {"ns_per_op": 600000, "allocs_per_op": 293},
	    "BenchmarkOnlyInNew": {"ns_per_op": 9e9, "allocs_per_op": 9999}
	  }
	}`)
	bad := writeBench(t, "bad.json", `{
	  "benchmarks": {
	    "BenchmarkServePredict/cold": {"ns_per_op": 700000, "allocs_per_op": 293}
	  }
	}`)

	// 600000 is within 20% of the baseline's "after" (550000); a benchmark
	// only in the new run is ignored.
	if ok, err := runCompare(base, okRun, 0.20, ""); err != nil || !ok {
		t.Fatalf("within-tolerance run: ok=%v err=%v", ok, err)
	}
	// 700000 is a 27% ns/op regression: must gate.
	if ok, err := runCompare(base, bad, 0.20, ""); err != nil || ok {
		t.Fatalf("regressed run: ok=%v err=%v, want gate", ok, err)
	}
}

// TestCompareFailsOnMissingBaseline: a baseline benchmark the new run
// does not contain fails the compare, and the output names it — a deleted
// or renamed benchmark cannot drop out of the gate unnoticed.
func TestCompareFailsOnMissingBaseline(t *testing.T) {
	base := writeBench(t, "base.json", `{
	  "benchmarks": {
	    "BenchmarkX":    {"ns_per_op": 1000, "allocs_per_op": 100},
	    "BenchmarkGone": {"ns_per_op": 1000, "allocs_per_op": 100}
	  }
	}`)
	cur := writeBench(t, "cur.json", `{
	  "benchmarks": {"BenchmarkX": {"ns_per_op": 1000, "allocs_per_op": 100}}
	}`)
	summary := filepath.Join(t.TempDir(), "summary.md")
	if ok, err := runCompare(base, cur, 0.20, summary); err != nil || ok {
		t.Fatalf("baseline benchmark missing from the run: ok=%v err=%v, want gate", ok, err)
	}
	data, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if md := string(data); !strings.Contains(md, "| `BenchmarkGone` |") || !strings.Contains(md, "MISSING") {
		t.Fatalf("summary does not name the missing benchmark:\n%s", md)
	}
}

func TestCompareGatesOnAllocs(t *testing.T) {
	base := writeBench(t, "base.json", `{
	  "benchmarks": {"BenchmarkX": {"ns_per_op": 1000, "allocs_per_op": 100}}
	}`)
	bad := writeBench(t, "bad.json", `{
	  "benchmarks": {"BenchmarkX": {"ns_per_op": 1000, "allocs_per_op": 150}}
	}`)
	if ok, err := runCompare(base, bad, 0.20, ""); err != nil || ok {
		t.Fatalf("alloc regression: ok=%v err=%v, want gate", ok, err)
	}
}

// TestComparePerBenchmarkTolerance: a baseline entry's own tolerance
// overrides the global one in both directions — widening the gate for a
// noisy benchmark, tightening it for a stable one.
func TestComparePerBenchmarkTolerance(t *testing.T) {
	base := writeBench(t, "base.json", `{
	  "benchmarks": {
	    "BenchmarkNoisy":  {"ns_per_op": 1000, "allocs_per_op": 100, "tolerance": 0.50},
	    "BenchmarkStable": {"ns_per_op": 1000, "allocs_per_op": 100, "tolerance": 0.05}
	  }
	}`)
	// Noisy regresses 40% (inside its 50% gate), stable is unchanged.
	loose := writeBench(t, "loose.json", `{
	  "benchmarks": {
	    "BenchmarkNoisy":  {"ns_per_op": 1400, "allocs_per_op": 100},
	    "BenchmarkStable": {"ns_per_op": 1000, "allocs_per_op": 100}
	  }
	}`)
	if ok, err := runCompare(base, loose, 0.20, ""); err != nil || !ok {
		t.Fatalf("override-widened run: ok=%v err=%v", ok, err)
	}
	// Stable regresses 10%: inside the global 20% but outside its 5% gate.
	tight := writeBench(t, "tight.json", `{
	  "benchmarks": {
	    "BenchmarkNoisy":  {"ns_per_op": 1000, "allocs_per_op": 100},
	    "BenchmarkStable": {"ns_per_op": 1100, "allocs_per_op": 100}
	  }
	}`)
	if ok, err := runCompare(base, tight, 0.20, ""); err != nil || ok {
		t.Fatalf("override-tightened run: ok=%v err=%v, want gate", ok, err)
	}
}

// TestCompareWritesMarkdownSummary: -summary appends a markdown diff
// table (the CI job summary) with one row per compared benchmark.
func TestCompareWritesMarkdownSummary(t *testing.T) {
	base := writeBench(t, "base.json", `{
	  "benchmarks": {"BenchmarkX": {"ns_per_op": 1000, "allocs_per_op": 100}}
	}`)
	cur := writeBench(t, "cur.json", `{
	  "benchmarks": {"BenchmarkX": {"ns_per_op": 1500, "allocs_per_op": 100}}
	}`)
	summary := filepath.Join(t.TempDir(), "summary.md")
	if ok, err := runCompare(base, cur, 0.20, summary); err != nil || ok {
		t.Fatalf("regressed run: ok=%v err=%v, want gate", ok, err)
	}
	data, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	md := string(data)
	for _, want := range []string{"| `BenchmarkX` |", "+50.0%", "REGRESSION", "| benchmark |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("summary missing %q:\n%s", want, md)
		}
	}
	// A second compare appends rather than truncates.
	if _, err := runCompare(base, cur, 0.20, summary); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "### Benchmark diff"); got != 2 {
		t.Fatalf("summary holds %d diff sections after two compares, want 2", got)
	}
}

func TestProvenanceCollectedAndRoundTrips(t *testing.T) {
	p := collectProvenance()
	if p.GoMaxProcs < 1 {
		t.Errorf("gomaxprocs = %d", p.GoMaxProcs)
	}
	if _, err := time.Parse(time.RFC3339, p.Timestamp); err != nil {
		t.Errorf("timestamp %q: %v", p.Timestamp, err)
	}

	f, err := ParseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	f.Provenance = p
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := writeBench(t, "prov.json", string(data))
	got, err := LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Provenance == nil || *got.Provenance != *p {
		t.Errorf("provenance round-trip: got %+v want %+v", got.Provenance, p)
	}
}
