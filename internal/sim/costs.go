// Package sim is a deterministic execution simulator for distributed
// streaming queries on heterogeneous edge-cloud hardware. It substitutes
// the Apache Storm + Kafka + cgroups/netem testbed of the COSTREAM paper
// and produces the five cost metrics the learned model is trained on:
// throughput, processing latency, end-to-end latency, backpressure
// occurrence and query success.
//
// One noise-free function, demand, holds the steady-state load model: what
// a placement asks of each operator's host at the plan's derived rates
// (per-tuple cost, GC multiplier, cross-host bits), each host's memory
// pressure and whether the query crashes. The engine is built from it,
// adds per-operator cost noise, and advances a fluid-flow model in fixed
// time steps. Operators have bounded input queues; hosts share CPU among
// co-located operators by water-filling; network links are
// capacity-constrained; window state consumes memory which induces GC
// slowdown and, beyond physical RAM, query crashes. These mechanisms
// reproduce the causal structure behind the paper's measurements
// (Sections IV and VI).
package sim

import (
	"costream/internal/hardware"
	"costream/internal/stream"
)

// Per-tuple CPU costs in reference-core microseconds. A reference core
// (CPU feature = 100%) executes 1e6 cost units per second. Values are
// loosely calibrated to JVM stream processors: tuple handling dominated by
// (de)serialization plus per-operator logic.
// The resulting single-core capacity of a simple source-filter-sink chain
// is ~3k tuples/s, in line with acked Storm topologies; the strongest
// training-grid host (800% CPU) sustains the top Table II event rates only
// when operators are spread sensibly — placement must matter.
const (
	costSourceBaseUS = 180.0 // broker fetch + deserialize + ack + emit
	costFilterBaseUS = 45.0
	costJoinBaseUS   = 90.0 // window insert + hash probe
	costJoinMatchUS  = 15.0 // per produced join match
	costAggBaseUS    = 60.0 // group lookup + state update
	costAggEmitUS    = 12.0 // per emitted group on window fire
	costSinkBaseUS   = 70.0 // serialize + persist
	costPerByteUS    = 0.12 // serialization cost per payload byte
)

// dataTypeCostFactor captures that string processing (hashing, comparison)
// is more expensive than fixed-width numeric processing.
func dataTypeCostFactor(t stream.DataType) float64 {
	switch t {
	case stream.TypeString:
		return 2.2
	case stream.TypeDouble:
		return 1.15
	default:
		return 1.0
	}
}

// filterFnCostFactor captures predicate complexity: prefix/suffix matching
// walks the string, ordered comparisons on strings are lexicographic.
func filterFnCostFactor(fn stream.FilterFn) float64 {
	switch fn {
	case stream.FilterStartsWith, stream.FilterEndsWith:
		return 1.8
	case stream.FilterNE:
		return 0.9
	default:
		return 1.0
	}
}

// perTupleCostUS returns the CPU cost in reference-core microseconds to
// process one input tuple at operator op, given the derived logical rates
// of the plan. For windowed operators the cost amortizes emission work over
// incoming tuples (matches produced per probe, groups emitted per fire).
func perTupleCostUS(q *stream.Query, r *stream.Rates, i int) float64 {
	op := q.Ops[i]
	inBytes := 0.0
	if ups := q.Upstream(i); len(ups) > 0 {
		for _, u := range ups {
			inBytes += r.TupleBytes[u]
		}
		inBytes /= float64(len(ups))
	} else {
		inBytes = r.TupleBytes[i]
	}
	byteCost := costPerByteUS * inBytes

	switch op.Type {
	case stream.OpSource:
		return costSourceBaseUS + costPerByteUS*r.TupleBytes[i]
	case stream.OpFilter:
		return costFilterBaseUS*filterFnCostFactor(op.FilterFn)*dataTypeCostFactor(op.LiteralType) + byteCost
	case stream.OpJoin:
		// Matches produced per incoming tuple: out/in ratio.
		in := r.In[i]
		matchesPerTuple := 0.0
		if in > 0 {
			matchesPerTuple = r.Out[i] / in
		}
		return costJoinBaseUS*dataTypeCostFactor(op.JoinKeyType) +
			costJoinMatchUS*matchesPerTuple + byteCost
	case stream.OpAggregate:
		in := r.In[i]
		emitsPerTuple := 0.0
		if in > 0 {
			emitsPerTuple = r.Out[i] / in
		}
		f := dataTypeCostFactor(op.AggValueType)
		if op.HasGroupBy {
			f *= dataTypeCostFactor(op.GroupByType) * 1.2
		}
		return costAggBaseUS*f + costAggEmitUS*emitsPerTuple + byteCost
	case stream.OpSink:
		return costSinkBaseUS + byteCost
	default:
		return costFilterBaseUS + byteCost
	}
}

// Window state overhead over serialized tuple payload bytes: JVM object
// headers, boxing, hash-table buckets and eviction bookkeeping inflate
// in-memory state well beyond its wire size.
const stateOverheadFactor = 8.0

// stateBytes returns the window state footprint of operator i in bytes.
// Joins keep one window per input stream; aggregations keep per-group state
// bounded by the window extent. Stateless operators return 0.
func stateBytes(q *stream.Query, r *stream.Rates, i int) float64 {
	op := q.Ops[i]
	if op.Window == nil {
		return 0
	}
	ups := q.Upstream(i)
	switch op.Type {
	case stream.OpJoin:
		var total float64
		for _, u := range ups {
			extent := op.Window.ExtentTuples(r.Out[u])
			total += extent * r.TupleBytes[u]
		}
		return total * stateOverheadFactor
	case stream.OpAggregate:
		u := ups[0]
		extent := op.Window.ExtentTuples(r.Out[u])
		// Grouped state keeps per-group accumulators plus (for sliding
		// windows) the raw tuples needed for eviction.
		raw := extent * r.TupleBytes[u]
		if op.Window.Type == stream.WindowTumbling {
			raw *= 0.5 // tumbling windows can fold incrementally
		}
		return raw * stateOverheadFactor
	default:
		return 0
	}
}

// Host memory model: a JVM-like base footprint plus a per-operator
// executor overhead, in bytes.
const (
	hostBaseMemBytes = 250 * 1024 * 1024
	perOpMemBytes    = 75 * 1024 * 1024
	// heapFraction is the share of machine RAM available to the DSPS
	// worker JVM heap; the rest goes to OS, page cache and off-heap use.
	heapFraction      = 0.65
	gcOnsetPressure   = 0.60 // heap pressure where GC slowdown starts
	gcMaxSlowdown     = 2.8  // cost multiplier at 100% pressure
	crashPressure     = 0.95 // beyond this the query dies (OOM / GC death)
	gcMaxPauseMS      = 120  // extra per-op latency at 100% pressure
	brokerBaseWaitMS  = 12.0 // Kafka fetch round-trip under no backlog
	queueCapTuples    = 4096 // bounded operator input queue
	bitsPerByte       = 8
	mbitToBits        = 1e6
	networkCongestion = 0.75 // utilization where queueing delay kicks in
)

// gcSlowdown maps memory pressure (used/RAM) to a CPU cost multiplier.
func gcSlowdown(pressure float64) float64 {
	if pressure <= gcOnsetPressure {
		return 1
	}
	frac := (pressure - gcOnsetPressure) / (1 - gcOnsetPressure)
	if frac > 1 {
		frac = 1
	}
	return 1 + (gcMaxSlowdown-1)*frac
}

// gcPauseMS maps memory pressure to an additive per-operator latency term.
func gcPauseMS(pressure float64) float64 {
	if pressure <= gcOnsetPressure {
		return 0
	}
	frac := (pressure - gcOnsetPressure) / (1 - gcOnsetPressure)
	if frac > 1 {
		frac = 1
	}
	return gcMaxPauseMS * frac
}

// load is the steady-state demand of a placement at the plan's derived
// rates, without noise. Operator i processes tuples at its in-rate (r.In,
// and a source its own emission rate r.Out), so it needs
// in × baseUS × gc / 1e6 cores and sends bits per second to other hosts.
// A noise-free run measures this, to rounding, while every used host stays
// under its cores and its outgoing bandwidth.
type load struct {
	baseUS   []float64 // per-tuple cost, reference-core µs, before noise and GC
	gc       []float64 // GC cost multiplier of the operator's host
	outRatio []float64 // tuples emitted per processed tuple
	remote   []float64 // consumers on another host, each sent its own copy
	bits     []float64 // cross-host bits per second, all copies
	// Per host of the cluster, idle ones included: used memory over the
	// worker heap, fixed for the run by the window extents.
	memPressure []float64
	crashed     bool // a used host is past crashPressure
}

// demand returns the load of placement p of q on c at rates r, in two
// allocations: the per-operator slices, and the host pressures, which a
// run's Metrics keep. A host's memory is its base footprint plus, for
// each operator placed there in index order, an executor's overhead and
// the window state; an idle host crashes no query. The step loop charges
// bits per step in the same form, with the tuples processed in place of
// the in-rate.
func demand(q *stream.Query, c *hardware.Cluster, p Placement, r *stream.Rates) load {
	n := len(q.Ops)
	floats := make([]float64, 5*n)
	l := load{
		baseUS: carve(&floats, n), gc: carve(&floats, n), outRatio: carve(&floats, n),
		remote: carve(&floats, n), bits: carve(&floats, n), memPressure: make([]float64, len(c.Hosts)),
	}
	for _, edge := range q.Edges {
		if p[edge[0]] != p[edge[1]] {
			l.remote[edge[0]]++
		}
	}
	for h := range c.Hosts {
		l.memPressure[h] = hostBaseMemBytes
	}
	for i, h := range p {
		l.memPressure[h] += perOpMemBytes + stateBytes(q, r, i)
	}
	for h, host := range c.Hosts {
		l.memPressure[h] /= host.RAMBytes() * heapFraction
	}
	for i, h := range p {
		l.crashed = l.crashed || l.memPressure[h] > crashPressure
		l.baseUS[i] = perTupleCostUS(q, r, i)
		l.gc[i] = gcSlowdown(l.memPressure[h])
		in := inRate(q, r, i)
		if in > 0 {
			l.outRatio[i] = r.Out[i] / in
		}
		l.bits[i] = in * l.outRatio[i] * r.TupleBytes[i] * bitsPerByte * l.remote[i]
	}
	return l
}

// inRate is the rate at which operator i processes tuples in steady state:
// r.In, and for a source its own emission rate.
func inRate(q *stream.Query, r *stream.Rates, i int) float64 {
	if q.Ops[i].Type == stream.OpSource {
		return r.Out[i]
	}
	return r.In[i]
}
