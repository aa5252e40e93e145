package workload

import (
	"math"

	"costream/internal/stream"
)

// BenchmarkID names the unseen real-world benchmark queries of Exp 6,
// derived from DSPBench [36] and the DEBS'14 Grand Challenge [40].
type BenchmarkID int

// Benchmark queries.
const (
	Advertisement BenchmarkID = iota
	SpikeDetection
	SmartGridGlobal
	SmartGridLocal
)

var benchmarkNames = [...]string{"Advertisement", "Spike Detection", "Smart Grid (global)", "Smart Grid (local)"}

func (b BenchmarkID) String() string {
	if b < 0 || int(b) >= len(benchmarkNames) {
		return "unknown"
	}
	return benchmarkNames[b]
}

// AllBenchmarks lists the Exp 6 benchmark queries in paper order.
func AllBenchmarks() []BenchmarkID {
	return []BenchmarkID{Advertisement, SpikeDetection, SmartGridGlobal, SmartGridLocal}
}

// BenchmarkQuery builds the given benchmark with a randomly drawn event
// rate (the paper executes each benchmark 100 times with random event
// rates and placements because the original benchmarks specify none).
// The data-distribution-dependent selectivities are fixed per benchmark to
// their realistic values, which differ from the synthetic training mix.
func (g *Generator) BenchmarkQuery(id BenchmarkID) *stream.Analysis {
	switch id {
	case Advertisement:
		return g.advertisement()
	case SpikeDetection:
		return g.spikeDetection()
	case SmartGridGlobal:
		return g.smartGrid(false)
	case SmartGridLocal:
		return g.smartGrid(true)
	default:
		panic("workload: unknown benchmark")
	}
}

// advertisement: the DSPBench ad-analytics sub-query of the paper — two
// real-world streams (clicks and impressions), a filter on the click
// stream and a windowed join on the ad identifier.
func (g *Generator) advertisement() *stream.Analysis {
	rate := g.pick(TwoWayRates)
	b := stream.NewBuilder()
	// Click stream: (query_id, ad_id, ts) - ids are strings in the data.
	clicks := b.AddSource(rate, []stream.DataType{stream.TypeString, stream.TypeString, stream.TypeInt})
	// Impression stream carries more attributes.
	impressions := b.AddSource(rate*4, []stream.DataType{
		stream.TypeString, stream.TypeString, stream.TypeInt, stream.TypeDouble, stream.TypeString})
	// Clicks are a small fraction of impressions; the filter removes bot
	// traffic with low selectivity.
	f := b.AddFilter(stream.FilterNE, stream.TypeString, 0.4)
	b.Connect(clicks, f)
	j := b.AddJoin(stream.TypeString,
		stream.Window{Type: stream.WindowSliding, Policy: stream.WindowTimeBased, Size: 8, Slide: 4},
		clickJoinSelectivity(rate))
	b.Connect(f, j).Connect(impressions, j)
	k := b.AddSink()
	b.Connect(j, k)
	return g.build(b)
}

// clickJoinSelectivity models real click/impression matching: each click
// matches its one impression within the window, so the selectivity over
// the cartesian product shrinks with the window volume.
func clickJoinSelectivity(rate float64) float64 {
	vol := rate * 4 * 8 // impressions in one window
	if vol <= 0 {
		return 1e-4
	}
	return math.Min(1.0/vol, 1e-2)
}

// spikeDetection: IoT sensor stream, moving average per device, filter
// keeping only readings far from the average (two consecutive filters
// after the aggregate - the pattern the flat-vector baseline misclassifies
// in the paper).
func (g *Generator) spikeDetection() *stream.Analysis {
	rate := g.pick(LinearRates)
	b := stream.NewBuilder()
	// (device_id, temperature, humidity, ts)
	s := b.AddSource(rate, []stream.DataType{stream.TypeString, stream.TypeDouble, stream.TypeDouble, stream.TypeInt})
	// Moving average over a count-based sliding window per device.
	a := b.AddAggregate(stream.AggMean, stream.TypeDouble, stream.TypeString, true,
		stream.Window{Type: stream.WindowSliding, Policy: stream.WindowCountBased, Size: 80, Slide: 40}, 0.4)
	// Spike predicate: |value - avg| > threshold, rare by nature...
	f1 := b.AddFilter(stream.FilterGT, stream.TypeDouble, 0.05)
	// ...followed by a sanity filter on the device prefix (2-filter chain).
	f2 := b.AddFilter(stream.FilterStartsWith, stream.TypeString, 0.9)
	k := b.AddSink()
	b.Chain(s, a, f1, f2, k)
	return g.build(b)
}

// smartGrid: DEBS'14 energy queries. The global variant computes the
// grid-wide sliding-window load; the local variant groups by household.
// The 30 s window length is outside the Table II training grid, exercising
// window-length extrapolation as in the paper.
func (g *Generator) smartGrid(local bool) *stream.Analysis {
	rate := g.pick(LinearRates)
	b := stream.NewBuilder()
	// (id, ts, value, property, plug_id, household_id, house_id)
	s := b.AddSource(rate, []stream.DataType{
		stream.TypeInt, stream.TypeInt, stream.TypeDouble, stream.TypeInt,
		stream.TypeInt, stream.TypeInt, stream.TypeInt})
	w := stream.Window{Type: stream.WindowSliding, Policy: stream.WindowTimeBased, Size: 30, Slide: 15}
	var a int
	if local {
		// Household count is much smaller than the window volume.
		a = b.AddAggregate(stream.AggAvg, stream.TypeDouble, stream.TypeInt, true, w, 0.02)
	} else {
		a = b.AddAggregate(stream.AggAvg, stream.TypeDouble, stream.TypeInt, false, w, 1)
	}
	k := b.AddSink()
	b.Chain(s, a, k)
	return g.build(b)
}
