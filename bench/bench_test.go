package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"testing"

	"costream"
)

// tinyRecipe keeps the whole suite of this directory under ten seconds.
var tinyRecipe = recipe{
	corpusN: 40, epochs: 1, hidden: 8, ensemble: 1,
	qerrTraces: 10, speedupQueries: 2, searchBudget: 8, poolChunk: 250,
}

func tinyParams(t *testing.T, w *workload, subjects *pool) params {
	small := *w
	small.opsPerRound = min(w.opsPerRound, 2*hotWorkingSet)
	small.ref.kernelCalls = min(w.ref.kernelCalls, 8)
	return params{w: &small, rec: tinyRecipe, seed: devSeed, seconds: 0, setupTimes: 1, logf: t.Logf, subjects: subjects}
}

// Every workload runs end to end on a tiny model for two rounds, passes
// its own output checks and reports every catalogue metric; one traced
// run reports every per-layer metric and writes its spans.
func TestWorkloadsEndToEnd(t *testing.T) {
	subjects, err := newPool(tinyRecipe)
	if err != nil {
		t.Fatal(err)
	}
	if len(subjects.predict) != 32 || len(subjects.search) != searchPairs {
		t.Fatalf("pool has %d predict and %d search subjects", len(subjects.predict), len(subjects.search))
	}
	for _, w := range workloads {
		res, err := runEndToEnd(tinyParams(t, w, subjects))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 3*min(w.opsPerRound, 2*hotWorkingSet) {
			t.Errorf("%s: correct %v, %d of %d ops failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
	}

	res, err := runTraced(tinyParams(t, findWorkload("serve-cold"), subjects))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run: correct %v, %d metrics, want %d", res.Correct, len(res.Metrics), len(perLayer))
	}
	if hit := res.Metrics["serve.cache_hit_ratio"].Value; hit != 0 {
		t.Errorf("serve-cold hit ratio %v, want 0", hit)
	}
	// Only the rungs a socket apart: eight samples of a tiny model do not
	// order rungs that differ by a few per cent.
	for _, rungs := range [][2]string{
		{"serve.socket_miss_us", "serve.handler_miss_us"},
		{"serve.socket_hit_us", "serve.handler_hit_us"},
	} {
		if outer, inner := res.Metrics[rungs[0]].Value, res.Metrics[rungs[1]].Value; inner > outer {
			t.Errorf("rung %s (%v) is above the rung outside it, %s (%v)", rungs[1], inner, rungs[0], outer)
		}
	}
	b, err := os.ReadFile("out/trace-serve-cold.json")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ Spans []span }
	if err := json.Unmarshal(b, &trace); err != nil || len(trace.Spans) == 0 {
		t.Fatalf("trace file: %d spans, %v", len(trace.Spans), err)
	}
	for i, s := range trace.Spans {
		if s.EndNS < s.StartNS || s.Parent >= i {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
	}
}

// A response that fails its output check is counted as a failed op.
func TestCorruptedResponseIsCounted(t *testing.T) {
	first := []byte(`{"costs":{"throughput_tps":1,"proc_latency_ms":2,"e2e_latency_ms":3,"success":true,"backpressured":false}}`)
	good := reply{http.StatusOK, "hit", bytes.Clone(first)}
	corrupted := reply{http.StatusOK, "hit", bytes.Replace(first, []byte(`"proc_latency_ms":2`), []byte(`"proc_latency_ms":9`), 1)}
	refused := reply{http.StatusServiceUnavailable, "", []byte(`{"error":"server saturated"}`)}
	uncached := reply{http.StatusOK, "miss", bytes.Clone(first)}

	tl := &tally{logf: t.Logf}
	for _, r := range []reply{good, corrupted, refused, uncached, good} {
		var errs []error
		if err := checkPredict(r, "hit", first); err != nil {
			errs = append(errs, err)
		}
		tl.add(1, errs)
	}
	if tl.attempted != 5 || tl.failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3", tl.attempted, tl.failed)
	}

	nan := reply{http.StatusOK, "miss", []byte(`{"costs":{"throughput_tps":1e999}}`)}
	if err := checkColdReply(nil, predictRequest{}, nan, false); err == nil {
		t.Error("a non-finite or undecodable cost passed serve-cold's check")
	}

	d := &fleetCascade{}
	pass := &costream.FleetReport{Scenario: "x", Pass: true}
	if err := d.check(pass); err != nil {
		t.Error(err)
	}
	if err := d.check(&costream.FleetReport{Scenario: "x", Pass: false}); err == nil {
		t.Error(`a report with "pass": false passed fleet-cascade's check`)
	}
	if err := d.check(&costream.FleetReport{Scenario: "y", Pass: true}); err == nil {
		t.Error("a report that differs from the first passed fleet-cascade's check")
	}
	tl = &tally{logf: t.Logf}
	tl.add(2, []error{errors.New("x")})
	tl.add(0, []error{errors.New("deferred check")})
	if tl.attempted != 2 || tl.failed != 2 {
		t.Errorf("attempted %d failed %d, want 2 and 2", tl.attempted, tl.failed)
	}
}

// BENCHMARK.json at the root of the repository repeats the catalogue.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %s / %s in the benchmark", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, over the limit of 200", w.name, len(w.why))
		}
	}
	for _, c := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", c.kind, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: %+v in BENCHMARK.json, %+v in the catalogue", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}
