// Package scenario is the registry of named corpus recipes: every way the
// project generates a benchmark corpus — the paper's training grid, the
// Table IV/V evaluation grids, the Exp 5/6 unseen-workload corpora, and
// the edge-cloud continuum families beyond the paper (edge-heavy,
// cloud-only, large clusters) — is a named dataset.BuildConfig factory
// here. costream-datagen, the experiment suite and tests all draw their
// corpora through this registry, so a scenario name in a shard manifest
// fully identifies how the corpus was produced.
package scenario

import (
	"fmt"
	"slices"

	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// Scenario is one named corpus recipe.
type Scenario struct {
	// Name is the registry key, also recorded in shard manifests.
	Name string
	// Description is a one-line summary for -list output and docs.
	Description string
	// Make returns the build configuration for an n-trace corpus with the
	// given seed. Callers may override Sim afterwards; the workload recipe
	// (generator config, query/cluster samplers) is the scenario's contract.
	Make func(n int, seed int64) dataset.BuildConfig
}

// Get returns the named scenario.
func Get(name string) (Scenario, error) {
	i := slices.IndexFunc(registry, func(s Scenario) bool { return s.Name == name })
	if i < 0 {
		names := make([]string, len(registry))
		for k, s := range registry {
			names[k] = s.Name
		}
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (known: %v)", name, names)
	}
	return registry[i], nil
}

// All returns the scenarios sorted by name.
func All() []Scenario { return slices.Clone(registry) }

// QuerySampler resolves the named recipe into a deterministic per-index
// query sampler: sampler(i) is the analysed query of trace i in a corpus
// built from this scenario with the same seed (dataset.TraceQuery), checked
// once. The fleet simulator draws its deployed workloads through this, so
// a scenario-registry name in a fleet-scenario file fully identifies the
// query mix.
func QuerySampler(name string, seed int64) (func(i int) *stream.Analysis, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	cfg := s.Make(1, seed)
	return func(i int) *stream.Analysis { return dataset.TraceQuery(cfg, i) }, nil
}

// base returns the common build-config skeleton: the Section VI training
// distribution over a given hardware grid and cluster-size range.
func base(n int, seed int64, hw hardware.Grid, minHosts, maxHosts int) dataset.BuildConfig {
	gen := workload.DefaultConfig(seed)
	gen.HW = hw
	if minHosts > 0 {
		gen.MinHosts = minHosts
	}
	if maxHosts > 0 {
		gen.MaxHosts = maxHosts
	}
	return dataset.BuildConfig{N: n, Seed: seed, Gen: gen, Sim: sim.DefaultConfig()}
}

// ExtrapolationGrid returns a hardware grid strictly outside the Table II
// training ranges in both directions: weaker-than-edge and
// stronger-than-cloud values for every feature. It extends the Table V
// experiment (which restricts one dimension at a time) to a full
// out-of-range landscape.
func ExtrapolationGrid() hardware.Grid {
	return hardware.Grid{
		CPU:       []float64{25, 900, 1000, 1200},
		RAMMB:     []float64{500, 40000, 48000, 64000},
		Bandwidth: []float64{10, 12000, 16000, 20000},
		LatencyMS: []float64{0.5, 200, 320, 640},
	}
}

// EdgeGrid returns the weak end of the Table II ranges: constrained CPU
// and RAM, thin links, high latency — the sensor/gateway side of the
// edge-cloud continuum. Cluster sampling still guarantees at least one
// fog-or-better host so the placement heuristic stays satisfiable.
func EdgeGrid() hardware.Grid {
	return hardware.Grid{
		CPU:       []float64{50, 100, 200},
		RAMMB:     []float64{1000, 2000, 4000},
		Bandwidth: []float64{25, 50, 100, 200},
		LatencyMS: []float64{20, 40, 80, 160},
	}
}

// CloudGrid returns the strong end of the Table II ranges: datacenter
// nodes with fat, low-latency links.
func CloudGrid() hardware.Grid {
	return hardware.Grid{
		CPU:       []float64{400, 500, 600, 700, 800},
		RAMMB:     []float64{16000, 24000, 32000},
		Bandwidth: []float64{1600, 3200, 6400, 10000},
		LatencyMS: []float64{1, 2, 5},
	}
}

// FilterChainConfig is the Exp 5 unseen-pattern recipe with a fixed chain
// length: every query is a source -> n-filter chain -> sink plan, a shape
// absent from the training distribution.
func FilterChainConfig(n int, seed int64, chainLen int) dataset.BuildConfig {
	cfg := base(n, seed, hardware.TrainingGrid(), 0, 0)
	cfg.QueryFn = func(g *workload.Generator, i int) *stream.Analysis {
		return g.FilterChain(chainLen)
	}
	return cfg
}

// BenchmarkConfig is the Exp 6 recipe for one real-world benchmark query,
// executed with random event rates and placements.
func BenchmarkConfig(n int, seed int64, id workload.BenchmarkID) dataset.BuildConfig {
	cfg := base(n, seed, hardware.TrainingGrid(), 0, 0)
	cfg.QueryFn = func(g *workload.Generator, i int) *stream.Analysis {
		return g.BenchmarkQuery(id)
	}
	return cfg
}

// QueryClassConfig is the Figure 8 recipe: every query drawn from one
// query class (linear / join arity x aggregation) on the training grids.
func QueryClassConfig(n int, seed int64, class stream.QueryClass) dataset.BuildConfig {
	cfg := base(n, seed, hardware.TrainingGrid(), 0, 0)
	cfg.QueryFn = func(g *workload.Generator, i int) *stream.Analysis {
		return g.QueryOfClass(class)
	}
	return cfg
}

// registry holds every scenario, sorted by name (the -list order).
var registry = []Scenario{
	{
		Name:        "benchmark",
		Description: "Exp 6 real-world benchmark queries (DSPBench/DEBS), cycling by trace index",
		Make: func(n int, seed int64) dataset.BuildConfig {
			cfg := base(n, seed, hardware.TrainingGrid(), 0, 0)
			ids := workload.AllBenchmarks()
			cfg.QueryFn = func(g *workload.Generator, i int) *stream.Analysis {
				return g.BenchmarkQuery(ids[i%len(ids)])
			}
			return cfg
		},
	},
	{
		Name:        "cloud-only",
		Description: "datacenter-only landscapes: strong hosts, fat low-latency links",
		Make: func(n int, seed int64) dataset.BuildConfig {
			return base(n, seed, CloudGrid(), 0, 0)
		},
	},
	{
		Name:        "edge-heavy",
		Description: "edge-dominated landscapes: weak hosts, thin high-latency links, 4-8 hosts",
		Make: func(n int, seed int64) dataset.BuildConfig {
			return base(n, seed, EdgeGrid(), 4, 8)
		},
	},
	{
		Name:        "extrapolation-hw",
		Description: "hardware strictly outside the Table II ranges in both directions (beyond Table V)",
		Make: func(n int, seed int64) dataset.BuildConfig {
			return base(n, seed, ExtrapolationGrid(), 0, 0)
		},
	},
	{
		Name:        "filter-chains",
		Description: "Exp 5 unseen query pattern: chains of 2-4 consecutive filters, cycling by trace index",
		Make: func(n int, seed int64) dataset.BuildConfig {
			cfg := base(n, seed, hardware.TrainingGrid(), 0, 0)
			cfg.QueryFn = func(g *workload.Generator, i int) *stream.Analysis {
				return g.FilterChain(2 + i%3)
			}
			return cfg
		},
	},
	{
		Name:        "interpolation-hw",
		Description: "Table IV-A: unseen in-range hardware (Exp 3 interpolation grid)",
		Make: func(n int, seed int64) dataset.BuildConfig {
			return base(n, seed, hardware.InterpolationGrid(), 0, 0)
		},
	},
	{
		Name:        "large-cluster",
		Description: "Table II hardware on 8-16 host clusters (placement search stress)",
		Make: func(n int, seed int64) dataset.BuildConfig {
			return base(n, seed, hardware.TrainingGrid(), 8, 16)
		},
	},
	{
		Name:        "training",
		Description: "Section VI training distribution: Table II grids, 3-6 hosts, Figure 6 query mix",
		Make: func(n int, seed int64) dataset.BuildConfig {
			return base(n, seed, hardware.TrainingGrid(), 0, 0)
		},
	},
}
