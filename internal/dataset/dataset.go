// Package dataset defines the cost-estimation benchmark corpus of the
// paper (Section VI): traces of query executions on heterogeneous hardware
// with their measured cost metrics, train/validation/test splits, balanced
// subsets for the classification metrics and the sharded on-disk store.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"costream/internal/hardware"
	"costream/internal/par"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// Trace is one benchmark entry: a query, the hardware landscape, the
// operator placement, and the cost metrics measured by executing it.
type Trace struct {
	Query     *stream.Query     `json:"query"`
	Cluster   *hardware.Cluster `json:"cluster"`
	Placement sim.Placement     `json:"placement"`
	Metrics   *sim.Metrics      `json:"metrics"`
}

// Corpus is an ordered collection of traces.
type Corpus struct {
	Traces []*Trace `json:"traces"`
}

// Len implements Source: the number of traces.
func (c *Corpus) Len() int { return len(c.Traces) }

// Iter implements Source: it visits every trace in index order. The
// callback's error aborts the iteration and is returned.
func (c *Corpus) Iter(fn func(i int, tr *Trace) error) error {
	for i, tr := range c.Traces {
		if err := fn(i, tr); err != nil {
			return err
		}
	}
	return nil
}

// Source is a streamable supplier of traces: the in-memory Corpus or the
// sharded on-disk Store. Iter visits traces in global index order;
// implementations may release each trace after the callback returns, so
// consumers that need O(1)-trace memory must not retain them.
type Source interface {
	Len() int
	Iter(fn func(i int, tr *Trace) error) error
}

// SplitIndices returns the trace indices of the train/validation/test
// partition produced by Corpus.Split with the same fractions and seed: the
// i-th returned index of each slice is the position (in the source corpus)
// of the i-th trace of the corresponding split corpus. It exists so
// sharded corpora can be split by index while streaming, without
// materializing the traces, and is the single definition of the split.
func SplitIndices(n int, trainFrac, valFrac float64, seed int64) (train, val, test []int) {
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	nTrain := int(trainFrac * float64(n))
	nVal := int(valFrac * float64(n))
	for i, j := range idx {
		switch {
		case i < nTrain:
			train = append(train, j)
		case i < nTrain+nVal:
			val = append(val, j)
		default:
			test = append(test, j)
		}
	}
	return train, val, test
}

// Split partitions the corpus into train/validation/test subsets with the
// given fractions (the remainder goes to test), shuffling deterministically
// with the seed. The paper uses 80/10/10.
func (c *Corpus) Split(trainFrac, valFrac float64, seed int64) (train, val, test *Corpus) {
	trainIdx, valIdx, testIdx := SplitIndices(len(c.Traces), trainFrac, valFrac, seed)
	pick := func(idx []int) *Corpus {
		out := &Corpus{}
		for _, j := range idx {
			out.Traces = append(out.Traces, c.Traces[j])
		}
		return out
	}
	return pick(trainIdx), pick(valIdx), pick(testIdx)
}

// BalancedIndices returns the trace indices of a label-balanced subset:
// equally many positive and negative indices, subsampled and shuffled
// deterministically with the seed. The final shuffle matters: without it
// the subset is all positives followed by all negatives, and any consumer
// that batches or truncates sees label-sorted data.
func BalancedIndices(labels []bool, seed int64) []int {
	var pos, neg []int
	for i, l := range labels {
		if l {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	n := len(pos)
	if len(neg) < n {
		n = len(neg)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	out := append(append(make([]int, 0, 2*n), pos[:n]...), neg[:n]...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Balanced returns a label-balanced subset for a binary metric, as the
// paper does for the classification test sets: equally many positive and
// negative traces, subsampled and shuffled deterministically.
func (c *Corpus) Balanced(label func(*Trace) bool, seed int64) *Corpus {
	labels := make([]bool, len(c.Traces))
	for i, t := range c.Traces {
		labels[i] = label(t)
	}
	out := &Corpus{}
	for _, j := range BalancedIndices(labels, seed) {
		out.Traces = append(out.Traces, c.Traces[j])
	}
	return out
}

// BuildConfig controls corpus generation.
type BuildConfig struct {
	// N is the number of traces to generate.
	N int
	// Seed drives workload sampling, placements and simulator noise.
	Seed int64
	// Gen configures the workload generator.
	Gen workload.Config
	// Sim configures the execution simulator.
	Sim sim.Config
	// QueryFn optionally overrides the query sampler (for special
	// corpora such as filter chains or benchmark queries). It is called
	// with a dedicated generator and the trace index, and returns the
	// query analysed, as the generator hands it out.
	QueryFn func(g *workload.Generator, i int) *stream.Analysis
	// ClusterFn optionally overrides the cluster sampler.
	ClusterFn func(g *workload.Generator, i int) *hardware.Cluster
}

// Build generates a corpus by sampling (query, cluster, placement) triples
// and executing them on the simulator. Generation is deterministic in the
// seed regardless of parallelism: every trace derives its own generator and
// simulator seed.
func Build(cfg BuildConfig) (*Corpus, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dataset: N must be positive")
	}
	traces, err := buildRange(cfg, 0, cfg.N)
	if err != nil {
		return nil, err
	}
	return &Corpus{Traces: traces}, nil
}

// buildRange generates the traces [lo, hi) of the corpus cfg describes
// on par.Each's GOMAXPROCS goroutines. Build runs it over the whole
// corpus, StreamBuild over one shard at a time.
func buildRange(cfg BuildConfig, lo, hi int) ([]*Trace, error) {
	traces := make([]*Trace, hi-lo)
	errs := make([]error, hi-lo)
	par.Each(hi-lo, 0, func(_, k int) { traces[k], errs[k] = buildOne(cfg, lo+k) })
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dataset: trace %d: %w", lo+k, err)
		}
	}
	return traces, nil
}

// traceSeed derives the workload-generator seed of trace i in a corpus
// built with the given corpus seed.
func traceSeed(corpusSeed int64, i int) int64 {
	return corpusSeed*1_000_003 + int64(i)
}

// TraceQuery returns the analysed query of trace i of the corpus cfg
// describes, whose Query() is Build(cfg).Traces[i].Query for any N > i,
// without building the corpus. The scenario registry's QuerySampler, and
// through it the fleet simulator, draws its queries here.
func TraceQuery(cfg BuildConfig, i int) *stream.Analysis {
	a, _ := traceQuery(cfg, i)
	return a
}

// traceQuery is the one definition of the query of trace i: the first
// draw of the trace's own generator, through QueryFn when set. The
// generator comes back too, for the rest of the trace.
func traceQuery(cfg BuildConfig, i int) (*stream.Analysis, *workload.Generator) {
	genCfg := cfg.Gen
	genCfg.Seed = traceSeed(cfg.Seed, i)
	g := workload.New(genCfg)
	if cfg.QueryFn != nil {
		return cfg.QueryFn(g, i), g
	}
	return g.Query(), g
}

func buildOne(cfg BuildConfig, i int) (*Trace, error) {
	a, g := traceQuery(cfg, i)
	seed := traceSeed(cfg.Seed, i)
	var c *hardware.Cluster
	if cfg.ClusterFn != nil {
		c = cfg.ClusterFn(g, i)
	} else {
		c = g.Cluster()
	}
	k, err := c.Check()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
	p, err := placement.RandomValid(rng, a, k)
	if err != nil {
		return nil, err
	}
	simCfg := cfg.Sim
	simCfg.Seed = seed ^ 0x51ED2701
	m, err := sim.Run(a, k, p, simCfg)
	if err != nil {
		return nil, err
	}
	return &Trace{Query: a.Query(), Cluster: c, Placement: p, Metrics: m}, nil
}

// Stats summarizes label distributions of a corpus, useful for sanity
// checks and reports. It is JSON-serializable so shard manifests can
// record per-shard label statistics.
type Stats struct {
	N             int     `json:"n"`
	SuccessRate   float64 `json:"success_rate"`
	BackpressRate float64 `json:"backpressure_rate"`
	CrashRate     float64 `json:"crash_rate"`
	MedianT       float64 `json:"median_throughput_tps"`
	MedianLpMS    float64 `json:"median_proc_latency_ms"`
	MedianLeMS    float64 `json:"median_e2e_latency_ms"`
}

// Summarize computes corpus statistics.
func (c *Corpus) Summarize() Stats {
	s := Stats{N: len(c.Traces)}
	if s.N == 0 {
		return s
	}
	var ts, lps, les []float64
	for _, t := range c.Traces {
		if t.Metrics.Success {
			s.SuccessRate++
			ts = append(ts, t.Metrics.ThroughputTPS)
			lps = append(lps, t.Metrics.ProcLatencyMS)
			les = append(les, t.Metrics.E2ELatencyMS)
		}
		if t.Metrics.Backpressured {
			s.BackpressRate++
		}
		if t.Metrics.Crashed {
			s.CrashRate++
		}
	}
	n := float64(s.N)
	s.SuccessRate /= n
	s.BackpressRate /= n
	s.CrashRate /= n
	s.MedianT = median(ts)
	s.MedianLpMS = median(lps)
	s.MedianLeMS = median(les)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if len(cp)%2 == 1 {
		return cp[len(cp)/2]
	}
	return (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
}
