// Package workload generates streaming queries and hardware landscapes for
// training and evaluating COSTREAM, reproducing the benchmark of Section VI:
// the Table II feature grids, the Figure 6 query templates (linear, 2-way
// and 3-way join queries with optional filters, aggregations and group-bys),
// the unseen filter-chain patterns of Exp 5, and the DSPBench-style
// real-world benchmark queries of Exp 6 (Advertisement, Spike Detection,
// Smart Grid).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"costream/internal/hardware"
	"costream/internal/stream"
)

// Event-rate grids of Table II, per query template.
var (
	LinearRates   = []float64{100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600}
	TwoWayRates   = []float64{50, 100, 250, 500, 750, 1000, 1250, 1500, 1750, 2000}
	ThreeWayRates = []float64{20, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
)

// Window grids of Table II.
var (
	CountWindowSizes = []float64{5, 10, 20, 40, 80, 160, 320, 640}
	TimeWindowSizes  = []float64{0.25, 0.5, 1, 2, 4, 8, 16}
)

// Tuple width range of Table II ([3..10] attributes).
const (
	MinTupleWidth = 3
	MaxTupleWidth = 10
)

// Config parameterizes a Generator.
type Config struct {
	Seed int64
	// HW is the hardware feature grid clusters are sampled from.
	HW hardware.Grid
	// MinHosts and MaxHosts bound the sampled cluster sizes.
	MinHosts, MaxHosts int
	// Rate grids; default to the Table II grids.
	LinearRates, TwoWayRates, ThreeWayRates []float64
	// Window size grids; default to the Table II grids.
	CountWindows, TimeWindows []float64
}

// DefaultConfig returns the paper's training configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:     seed,
		HW:       hardware.TrainingGrid(),
		MinHosts: 3, MaxHosts: 6,
		LinearRates: LinearRates, TwoWayRates: TwoWayRates, ThreeWayRates: ThreeWayRates,
		CountWindows: CountWindowSizes, TimeWindows: TimeWindowSizes,
	}
}

// Generator draws random queries and clusters. It is deterministic in its
// seed and must not be shared across goroutines. Every query comes out
// analysed (stream.Analysis): checked once, by the builder that made it,
// so a caller that simulates or places it checks it no further.
type Generator struct {
	rng *rand.Rand
	cfg Config
}

// New returns a generator for the configuration.
func New(cfg Config) *Generator {
	if len(cfg.HW.CPU) == 0 || len(cfg.HW.RAMMB) == 0 ||
		len(cfg.HW.Bandwidth) == 0 || len(cfg.HW.LatencyMS) == 0 {
		cfg.HW = hardware.TrainingGrid()
	}
	if cfg.MinHosts <= 0 {
		cfg.MinHosts = 3
	}
	if cfg.MaxHosts < cfg.MinHosts {
		cfg.MaxHosts = cfg.MinHosts
	}
	if len(cfg.LinearRates) == 0 {
		cfg.LinearRates = LinearRates
	}
	if len(cfg.TwoWayRates) == 0 {
		cfg.TwoWayRates = TwoWayRates
	}
	if len(cfg.ThreeWayRates) == 0 {
		cfg.ThreeWayRates = ThreeWayRates
	}
	if len(cfg.CountWindows) == 0 {
		cfg.CountWindows = CountWindowSizes
	}
	if len(cfg.TimeWindows) == 0 {
		cfg.TimeWindows = TimeWindowSizes
	}
	return &Generator{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// Cluster samples a hardware landscape from the configured grid.
func (g *Generator) Cluster() *hardware.Cluster {
	n := g.cfg.MinHosts
	if g.cfg.MaxHosts > g.cfg.MinHosts {
		n += g.rng.Intn(g.cfg.MaxHosts - g.cfg.MinHosts + 1)
	}
	return g.cfg.HW.SampleCluster(g.rng, n)
}

func (g *Generator) pick(vals []float64) float64 { return vals[g.rng.Intn(len(vals))] }

func (g *Generator) schema() []stream.DataType {
	width := MinTupleWidth + g.rng.Intn(MaxTupleWidth-MinTupleWidth+1)
	types := stream.AllDataTypes()
	s := make([]stream.DataType, width)
	for i := range s {
		s[i] = types[g.rng.Intn(len(types))]
	}
	return s
}

// filterSelectivity mixes a broad uniform regime with an occasional highly
// selective regime so the corpus contains logically failing executions
// (Definition 5, reason 2).
func (g *Generator) filterSelectivity() float64 {
	if g.rng.Float64() < 0.15 {
		// Log-uniform over [1e-4, 0.1].
		return math.Pow(10, -4+3*g.rng.Float64())
	}
	return 0.1 + 0.9*g.rng.Float64()
}

// joinSelectivity is log-uniform over [1e-5, 1e-2]: per Definition 7 it
// divides the cartesian product of the window contents.
func (g *Generator) joinSelectivity() float64 {
	return math.Pow(10, -5+3*g.rng.Float64())
}

// aggSelectivity is the distinct-groups fraction of Definition 8.
func (g *Generator) aggSelectivity() float64 {
	return 0.01 + 0.99*g.rng.Float64()
}

func (g *Generator) window() stream.Window {
	w := stream.Window{}
	if g.rng.Intn(2) == 0 {
		w.Type = stream.WindowSliding
	} else {
		w.Type = stream.WindowTumbling
	}
	if g.rng.Intn(2) == 0 {
		w.Policy = stream.WindowCountBased
		w.Size = g.pick(g.cfg.CountWindows)
	} else {
		w.Policy = stream.WindowTimeBased
		w.Size = g.pick(g.cfg.TimeWindows)
	}
	if w.Type == stream.WindowTumbling {
		w.Slide = w.Size
	} else {
		// Slide in [0.3, 0.7] x window length (Table II).
		ratio := 0.3 + 0.4*g.rng.Float64()
		w.Slide = w.Size * ratio
		if w.Policy == stream.WindowCountBased {
			w.Slide = math.Max(1, math.Round(w.Slide))
		}
	}
	return w
}

func (g *Generator) addFilter(b *stream.Builder) int {
	fns := stream.AllFilterFns()
	fn := fns[g.rng.Intn(len(fns))]
	lit := stream.AllDataTypes()[g.rng.Intn(3)]
	if fn.StringOnly() {
		lit = stream.TypeString
	}
	return b.AddFilter(fn, lit, g.filterSelectivity())
}

func (g *Generator) addAggregate(b *stream.Builder) int {
	fns := stream.AllAggFns()
	fn := fns[g.rng.Intn(len(fns))]
	value := stream.AllDataTypes()[g.rng.Intn(3)]
	// Group-by data type: int, string, double, or none (Table II).
	gbChoice := g.rng.Intn(4)
	hasGB := gbChoice < 3
	gb := stream.TypeInt
	if hasGB {
		gb = stream.AllDataTypes()[gbChoice]
	}
	return b.AddAggregate(fn, value, gb, hasGB, g.window(), g.aggSelectivity())
}

// filterCount draws the per-query filter count with the paper's corpus
// distribution (35% 1, 34% 2, 24% 3, 6% 4, rest 0) clamped to maxPositions.
func (g *Generator) filterCount(maxPositions int) int {
	r := g.rng.Float64()
	var n int
	switch {
	case r < 0.35:
		n = 1
	case r < 0.69:
		n = 2
	case r < 0.93:
		n = 3
	case r < 0.99:
		n = 4
	default:
		n = 0
	}
	if n > maxPositions {
		n = maxPositions
	}
	return n
}

// Linear builds a linear query: source -> [filter] -> [aggregate ->
// [filter]] -> sink. nFilters is clamped to the available positions.
func (g *Generator) Linear(nFilters int, withAgg bool) *stream.Analysis {
	b := stream.NewBuilder()
	prev := b.AddSource(g.pick(g.cfg.LinearRates), g.schema())
	maxPos := 1
	if withAgg {
		maxPos = 2
	}
	if nFilters > maxPos {
		nFilters = maxPos
	}
	placed := 0
	if nFilters > placed {
		f := g.addFilter(b)
		b.Connect(prev, f)
		prev = f
		placed++
	}
	if withAgg {
		a := g.addAggregate(b)
		b.Connect(prev, a)
		prev = a
		if nFilters > placed {
			f := g.addFilter(b)
			b.Connect(prev, f)
			prev = f
			placed++
		}
	}
	k := b.AddSink()
	b.Connect(prev, k)
	return g.build(b)
}

// branch builds source -> optional filter and returns the open end.
func (g *Generator) branch(b *stream.Builder, rates []float64, withFilter bool) int {
	prev := b.AddSource(g.pick(rates), g.schema())
	if withFilter {
		f := g.addFilter(b)
		b.Connect(prev, f)
		prev = f
	}
	return prev
}

// TwoWay builds a 2-way windowed join query following Figure 6.
func (g *Generator) TwoWay(nFilters int, withAgg bool) *stream.Analysis {
	maxPos := 3 // two source branches + post-join
	if withAgg {
		maxPos = 4
	}
	if nFilters > maxPos {
		nFilters = maxPos
	}
	b := stream.NewBuilder()
	left := g.branch(b, g.cfg.TwoWayRates, nFilters >= 1)
	right := g.branch(b, g.cfg.TwoWayRates, nFilters >= 2)
	j := b.AddJoin(stream.AllDataTypes()[g.rng.Intn(3)], g.window(), g.joinSelectivity())
	b.Connect(left, j).Connect(right, j)
	prev := j
	if nFilters >= 3 {
		f := g.addFilter(b)
		b.Connect(prev, f)
		prev = f
	}
	if withAgg {
		a := g.addAggregate(b)
		b.Connect(prev, a)
		prev = a
		if nFilters >= 4 {
			f := g.addFilter(b)
			b.Connect(prev, f)
			prev = f
		}
	}
	k := b.AddSink()
	b.Connect(prev, k)
	return g.build(b)
}

// ThreeWay builds a 3-way join query: join(join(s1, s2), s3) with optional
// filters per branch, post-join filters and an optional aggregation, as in
// the Figure 6 template.
func (g *Generator) ThreeWay(nFilters int, withAgg bool) *stream.Analysis {
	maxPos := 5
	if withAgg {
		maxPos = 6
	}
	if nFilters > maxPos {
		nFilters = maxPos
	}
	b := stream.NewBuilder()
	s1 := g.branch(b, g.cfg.ThreeWayRates, nFilters >= 1)
	s2 := g.branch(b, g.cfg.ThreeWayRates, nFilters >= 2)
	j1 := b.AddJoin(stream.AllDataTypes()[g.rng.Intn(3)], g.window(), g.joinSelectivity())
	b.Connect(s1, j1).Connect(s2, j1)
	mid := j1
	if nFilters >= 4 {
		f := g.addFilter(b)
		b.Connect(mid, f)
		mid = f
	}
	s3 := g.branch(b, g.cfg.ThreeWayRates, nFilters >= 3)
	j2 := b.AddJoin(stream.AllDataTypes()[g.rng.Intn(3)], g.window(), g.joinSelectivity())
	b.Connect(mid, j2).Connect(s3, j2)
	prev := j2
	if nFilters >= 5 {
		f := g.addFilter(b)
		b.Connect(prev, f)
		prev = f
	}
	if withAgg {
		a := g.addAggregate(b)
		b.Connect(prev, a)
		prev = a
		if nFilters >= 6 {
			f := g.addFilter(b)
			b.Connect(prev, f)
			prev = f
		}
	}
	k := b.AddSink()
	b.Connect(prev, k)
	return g.build(b)
}

// build returns the analysis of b's plan, which the generator made
// valid: the one check a generated query gets.
func (g *Generator) build(b *stream.Builder) *stream.Analysis {
	a, err := b.Analyze()
	if err != nil {
		panic(err)
	}
	return a
}

// Query draws one query with the corpus mix of Section VI: 35% linear,
// 34% 2-way join, 31% 3-way join; 50% with an aggregation; filter counts
// per the corpus distribution.
func (g *Generator) Query() *stream.Analysis {
	withAgg := g.rng.Intn(2) == 0
	r := g.rng.Float64()
	switch {
	case r < 0.35:
		maxPos := 1
		if withAgg {
			maxPos = 2
		}
		return g.Linear(g.filterCount(maxPos), withAgg)
	case r < 0.69:
		maxPos := 3
		if withAgg {
			maxPos = 4
		}
		return g.TwoWay(g.filterCount(maxPos), withAgg)
	default:
		maxPos := 5
		if withAgg {
			maxPos = 6
		}
		return g.ThreeWay(g.filterCount(maxPos), withAgg)
	}
}

// QueryOfClass draws a query of the requested Figure 8 class.
func (g *Generator) QueryOfClass(class stream.QueryClass) *stream.Analysis {
	switch class {
	case stream.ClassLinear:
		return g.Linear(g.filterCount(1), false)
	case stream.ClassLinearAgg:
		return g.Linear(g.filterCount(2), true)
	case stream.ClassTwoWayJoin:
		return g.TwoWay(g.filterCount(3), false)
	case stream.ClassTwoWayJoinAgg:
		return g.TwoWay(g.filterCount(4), true)
	case stream.ClassThreeWayJoin:
		return g.ThreeWay(g.filterCount(5), false)
	case stream.ClassThreeWayJoinAgg:
		return g.ThreeWay(g.filterCount(6), true)
	default:
		panic(fmt.Sprintf("workload: unknown query class %v", class))
	}
}

// FilterChain builds the unseen query pattern of Exp 5: a chain of n
// consecutive filter operators (training queries never chain filters
// directly). n must be at least 2.
func (g *Generator) FilterChain(n int) *stream.Analysis {
	if n < 2 {
		panic("workload: filter chains start at 2 filters")
	}
	b := stream.NewBuilder()
	prev := b.AddSource(g.pick(g.cfg.LinearRates), g.schema())
	for i := 0; i < n; i++ {
		f := g.addFilter(b)
		b.Connect(prev, f)
		prev = f
	}
	k := b.AddSink()
	b.Connect(prev, k)
	return g.build(b)
}

// FilterQuery builds the fixed-shape linear filter query of Exp 2b with an
// explicit event rate and selectivity.
func (g *Generator) FilterQuery(rate, selectivity float64) *stream.Analysis {
	b := stream.NewBuilder()
	s := b.AddSource(rate, g.schema())
	f := b.AddFilter(stream.FilterGT, stream.TypeInt, selectivity)
	k := b.AddSink()
	b.Chain(s, f, k)
	return g.build(b)
}
