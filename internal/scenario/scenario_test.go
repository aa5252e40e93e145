package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"costream/internal/dataset"
	"costream/internal/workload"
)

func TestRegistryNames(t *testing.T) {
	want := []string{
		"benchmark", "cloud-only", "edge-heavy", "extrapolation-hw",
		"filter-chains", "interpolation-hw", "large-cluster", "training",
	}
	var got []string
	for _, s := range All() {
		got = append(got, s.Name)
	}
	if len(got) != len(want) {
		t.Fatalf("All() names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("All()[%d] = %q, want %q (sorted)", i, got[i], want[i])
		}
		if s, err := Get(want[i]); err != nil || s.Name != want[i] {
			t.Fatalf("Get(%q) = %q, %v", want[i], s.Name, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
	for _, s := range All() {
		if s.Description == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
	}
}

// fingerprint summarizes the first trace of a scenario corpus: the query
// shape, the sampled cluster, the placement and the headline metrics. Any
// change to a scenario's recipe — grids, query mix, seed derivation —
// shows up here.
func fingerprint(t *testing.T, s Scenario, seed int64) string {
	t.Helper()
	cfg := s.Make(1, seed)
	// Shorter simulation than the recipe default; pinned by this test, not
	// part of the scenario contract (callers override Sim freely).
	cfg.Sim.DurationS, cfg.Sim.WarmupS = 20, 4
	c, err := dataset.Build(cfg)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	tr := c.Traces[0]
	hosts := make([]string, len(tr.Cluster.Hosts))
	for i, h := range tr.Cluster.Hosts {
		hosts[i] = fmt.Sprintf("%g/%g/%g/%g", h.CPU, h.RAMMB, h.NetBandwidthMbps, h.NetLatencyMS)
	}
	return fmt.Sprintf("%s ops=%d place=%v hosts=[%s] succ=%t tput=%.2f",
		tr.Query.Class(), tr.Query.NumOps(), []int(tr.Placement),
		strings.Join(hosts, " "), tr.Metrics.Success, tr.Metrics.ThroughputTPS)
}

// TestScenarioGolden pins each scenario's first trace for a fixed seed.
// These strings are corpus provenance: if one changes, every corpus built
// from that scenario changes identity, and the manifest scenario names
// stop meaning what they meant — bump them only deliberately.
func TestScenarioGolden(t *testing.T) {
	golden := map[string]string{
		"benchmark":        "2-Way-Join ops=5 place=[0 0 1 2 2] hosts=[50/32000/6400/2 100/2000/6400/80 800/8000/3200/10] succ=true tput=340.06",
		"cloud-only":       "Linear ops=3 place=[2 2 0] hosts=[500/16000/3200/2 400/24000/1600/5 800/32000/6400/1 700/32000/10000/1] succ=true tput=36.28",
		"edge-heavy":       "Linear ops=3 place=[0 0 4] hosts=[50/1000/200/80 100/4000/100/160 50/4000/100/160 200/1000/100/80 200/4000/200/40 200/4000/200/20] succ=true tput=36.28",
		"extrapolation-hw": "Linear ops=3 place=[2 0 0] hosts=[25/40000/12000/320 1000/500/10/200 1200/64000/16000/200 900/64000/20000/320] succ=true tput=36.28",
		"filter-chains":    "Linear ops=4 place=[2 0 0 0] hosts=[500/1000/1600/2 200/24000/100/40 50/24000/50/5 400/4000/1600/10] succ=true tput=60.42",
		"interpolation-hw": "Linear ops=3 place=[2 2 0] hosts=[450/12000/8000/60 650/20000/1200/120 350/28000/250/30 150/28000/1200/3] succ=true tput=36.28",
		"large-cluster":    "Linear ops=3 place=[0 6 7] hosts=[400/4000/3200/80 500/1000/1600/2 200/24000/100/40 50/24000/50/5 400/4000/1600/10 800/16000/1600/5 500/32000/10000/5 400/16000/50/2 600/4000/100/1] succ=true tput=36.28",
		"training":         "Linear ops=3 place=[2 2 0] hosts=[400/4000/3200/80 500/1000/1600/2 200/24000/100/40 50/24000/50/5] succ=true tput=36.28",
	}
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			got := fingerprint(t, s, 42)
			want, ok := golden[s.Name]
			if !ok {
				t.Fatalf("no golden entry for scenario %q; add: %q", s.Name, got)
			}
			if got != want {
				t.Errorf("scenario %q first trace changed:\n got  %s\n want %s", s.Name, got, want)
			}
		})
	}
}

// TestScenarioRecipesDiffer sanity-checks that the families actually
// produce different corpora: the continuum scenarios must not collapse
// into the training recipe.
func TestScenarioRecipesDiffer(t *testing.T) {
	recipe := func(name string) dataset.BuildConfig {
		t.Helper()
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return s.Make(4, 7)
	}
	training, edge, cloud, large := recipe("training"), recipe("edge-heavy"), recipe("cloud-only"), recipe("large-cluster")
	if edge.Gen.HW.CPU[len(edge.Gen.HW.CPU)-1] >= cloud.Gen.HW.CPU[0] {
		t.Error("edge-heavy grid overlaps cloud-only CPU range")
	}
	if large.Gen.MinHosts < 8 || large.Gen.MaxHosts > 16 {
		t.Errorf("large-cluster hosts %d-%d, want within 8-16", large.Gen.MinHosts, large.Gen.MaxHosts)
	}
	if training.Gen.MinHosts != 3 || training.Gen.MaxHosts != 6 {
		t.Errorf("training hosts %d-%d, want 3-6 (paper)", training.Gen.MinHosts, training.Gen.MaxHosts)
	}
	// Extrapolation values must lie strictly outside the training grid.
	tg := training.Gen.HW
	for _, cpu := range ExtrapolationGrid().CPU {
		if cpu >= tg.CPU[0] && cpu <= tg.CPU[len(tg.CPU)-1] {
			t.Errorf("extrapolation CPU %g inside the training range", cpu)
		}
	}
}

// TestFilterChainAndBenchmarkHelpers pins the parameterized recipes the
// experiment suite uses directly.
func TestFilterChainAndBenchmarkHelpers(t *testing.T) {
	cfg := FilterChainConfig(2, 6002, 3)
	cfg.Sim.DurationS, cfg.Sim.WarmupS = 10, 2
	c, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.Traces {
		if n := len(tr.Query.Ops); n != 5 { // source + 3 filters + sink
			t.Fatalf("filter-chain query has %d ops, want 5", n)
		}
	}
	bcfg := BenchmarkConfig(1, 7000, workload.SpikeDetection)
	bcfg.Sim.DurationS, bcfg.Sim.WarmupS = 10, 2
	bc, err := dataset.Build(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Len() != 1 {
		t.Fatal("benchmark corpus empty")
	}
}

// TestQuerySamplerMatchesBuild holds QuerySampler to its promise: for
// every scenario, sampler(i) analyses the query of trace i of the corpus
// Build makes from the same recipe and seed, and its rates are the ones
// the query's own analysis derives.
func TestQuerySamplerMatchesBuild(t *testing.T) {
	const n, seed = 4, 11
	for _, s := range All() {
		sample, err := QuerySampler(s.Name, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.Make(n, seed)
		// A short run: Sim is the caller's to change, and the query is
		// drawn before it runs.
		cfg.Sim.DurationS, cfg.Sim.WarmupS = 20, 4
		c, err := dataset.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for i, tr := range c.Traces {
			a := sample(i)
			if q := a.Query(); !reflect.DeepEqual(q, tr.Query) {
				t.Errorf("%s: sampler(%d) is not trace %d's query:\n%+v\nvs\n%+v", s.Name, i, i, q, tr.Query)
			}
			want, err := tr.Query.Analyze()
			if err != nil {
				t.Fatalf("%s: trace %d: %v", s.Name, i, err)
			}
			if !reflect.DeepEqual(a.Rates, want.Rates) {
				t.Errorf("%s: sampler(%d)'s rates differ from its query's analysis", s.Name, i)
			}
		}
	}
}
