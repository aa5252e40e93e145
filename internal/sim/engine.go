package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"costream/internal/hardware"
	"costream/internal/stream"
)

// Config controls a simulation run.
type Config struct {
	// DurationS is the simulated execution time after warm-up, matching
	// the paper's measured window.
	DurationS float64
	// WarmupS is simulated time excluded from measurement (window fill,
	// producer ramp-up).
	WarmupS float64
	// StepS is the fluid-model step size.
	StepS float64
	// Seed drives the run's noise. Identical configurations with
	// identical seeds produce identical metrics.
	Seed int64
	// NoiseStd is the standard deviation of the per-operator
	// multiplicative log-normal cost noise.
	NoiseStd float64
}

// DefaultConfig returns the configuration used for corpus generation:
// 120 s measured execution (the paper uses ~4 min; the fluid model reaches
// steady state far earlier), 10 s warm-up, 50 ms steps.
func DefaultConfig() Config {
	return Config{DurationS: 120, WarmupS: 10, StepS: 0.05, Seed: 1, NoiseStd: 0.08}
}

// Placement maps operator index -> host index.
type Placement []int

// Validate checks the placement against the plan and cluster sizes.
func (p Placement) Validate(q *stream.Query, c *hardware.Cluster) error {
	if len(p) != len(q.Ops) {
		return fmt.Errorf("placement has %d entries for %d operators", len(p), len(q.Ops))
	}
	for i, h := range p {
		if h < 0 || h >= len(c.Hosts) {
			return fmt.Errorf("operator %d placed on invalid host %d (cluster has %d)", i, h, len(c.Hosts))
		}
	}
	return nil
}

// Bounds of a usable Config beyond the signs of its fields. maxSteps keeps
// a run's step count exact and its time bounded; maxRunS keeps one step's
// broker input and network budget far inside the float64 range; a NoiseStd
// beyond maxNoiseStd spreads one operator's cost over orders of magnitude
// and, far enough out, past that range.
const (
	maxSteps    = 1e8
	maxRunS     = 1e9
	maxNoiseStd = 1
)

// Validate reports the first unusable field of the configuration by name:
// a non-finite value, a non-positive StepS or DurationS, a negative
// WarmupS, a NoiseStd outside [0, maxNoiseStd], a run past maxRunS
// simulated seconds or maxSteps steps, or a measured window that holds no
// step (DurationS shorter than half a step).
func (cfg Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"DurationS", cfg.DurationS}, {"WarmupS", cfg.WarmupS}, {"StepS", cfg.StepS}, {"NoiseStd", cfg.NoiseStd}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s is %v, want a finite value", f.name, f.v)
		}
	}
	switch {
	case cfg.StepS <= 0:
		return fmt.Errorf("StepS %v is not positive", cfg.StepS)
	case cfg.DurationS <= 0:
		return fmt.Errorf("DurationS %v is not positive", cfg.DurationS)
	case cfg.WarmupS < 0:
		return fmt.Errorf("WarmupS %v is negative", cfg.WarmupS)
	case cfg.NoiseStd < 0 || cfg.NoiseStd > maxNoiseStd:
		return fmt.Errorf("NoiseStd %v is outside [0, %v]", cfg.NoiseStd, maxNoiseStd)
	case cfg.WarmupS+cfg.DurationS > maxRunS:
		return fmt.Errorf("WarmupS+DurationS %v s is longer than %v s", cfg.WarmupS+cfg.DurationS, maxRunS)
	}
	steps, warmSteps := cfg.stepCounts()
	if steps > maxSteps {
		return fmt.Errorf("WarmupS+DurationS %v s at StepS %v is %v steps, more than %v", cfg.WarmupS+cfg.DurationS, cfg.StepS, steps, maxSteps)
	}
	if steps-warmSteps < 1 {
		return fmt.Errorf("DurationS %v at StepS %v measures no step", cfg.DurationS, cfg.StepS)
	}
	return nil
}

// stepCounts returns the run's number of steps and how many of them are
// warm-up, as whole floats.
func (cfg Config) stepCounts() (steps, warmSteps float64) {
	return math.Round((cfg.WarmupS + cfg.DurationS) / cfg.StepS), math.Round(cfg.WarmupS / cfg.StepS)
}

// Run executes the query under the given placement on the cluster and
// returns the measured cost metrics. It is deterministic in (inputs, seed).
//
// Run does not validate the whole cluster: that is done once, where a
// cluster is built or changed (request decode, fleet views, control-plane
// registration, dataset builds, the facade), and a control loop runs the
// simulator many times over one cluster. Run checks what the placement
// touches: every index in range, and every used host non-nil with
// finite, positive features (Host.Validate). It also refuses a nil host
// anywhere in the cluster, because the per-host memory pressure it
// reports reads every host.
func Run(q *stream.Query, c *hardware.Cluster, p Placement, cfg Config) (*Metrics, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("invalid query: %w", err)
	}
	if err := p.Validate(q, c); err != nil {
		return nil, fmt.Errorf("invalid placement: %w", err)
	}
	if i := slices.Index(c.Hosts, nil); i >= 0 {
		return nil, fmt.Errorf("invalid cluster: host %d is null", i)
	}
	for _, h := range p {
		if err := c.Hosts[h].Validate(); err != nil {
			return nil, fmt.Errorf("invalid cluster: %w", err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("invalid config: %w", err)
	}
	rates, err := q.DeriveRates()
	if err != nil {
		return nil, err
	}
	e := newEngine(q, c, p, rates, cfg)
	return e.run(), nil
}

type engine struct {
	q     *stream.Query
	c     *hardware.Cluster
	p     Placement
	rates *stream.Rates
	cfg   Config

	// The placement's noise-free load: out ratios, remote consumers, host
	// memory pressure and the crash verdict are read as they are.
	load

	order  []int     // topological order of operators
	downs  [][]int   // consumers per operator, in edge order (Query.Downstream)
	costUS []float64 // noisy per-tuple cost incl. GC slowdown
	queue  []float64 // input queue length (tuples)

	// The hosts that run an operator, built once per run; a step visits
	// only these, so it costs O(operators) at any cluster size. Group g is
	// host hosts[g], in first use over the operator indices, and runs the
	// operators members[start[g]:start[g+1]] in index order; group[i] is
	// operator i's group.
	hosts   []int
	start   []int
	members []int
	group   []int

	// Broker state, one stream per source operator; indexed by operator.
	sourceIdx []int
	backlog   []float64

	// Measurement accumulators, indexed by operator (backlogStart and
	// backlogAcc are read for sources only).
	measTime     float64
	procAcc      []float64 // tuples processed
	emitAcc      []float64 // tuples emitted
	queueAcc     []float64 // queue length integral
	cpuAcc       []float64 // core-seconds consumed
	netBitsAcc   []float64 // outgoing bits (cross-host only)
	backlogStart []float64 // broker backlog when measurement starts
	backlogAcc   []float64 // broker backlog integral
	sinkArrived  float64

	// Water-fill scratch of hostCPUAlloc, sized for the whole query so the
	// step loop allocates nothing.
	alloc, need []float64
	active      []int
}

// newEngine builds a run from demand's load of the placement: it adds
// only the topology (topological order, consumer lists, sources), the
// grouping of the operators by host and the noise draw, one log-normal
// factor per operator in index order, giving the step loop's cost
// baseUS × noise × gc in that order.
func newEngine(q *stream.Query, c *hardware.Cluster, p Placement, r *stream.Rates, cfg Config) *engine {
	n := len(q.Ops)
	order, _ := q.TopoOrder()
	floats, ints := make([]float64, 12*n), make([]int, 3*n)
	e := &engine{
		q: q, c: c, p: p, rates: r, cfg: cfg,
		load:         demand(q, c, p, r),
		order:        order,
		downs:        make([][]int, n),
		start:        make([]int, 1, n+1),
		members:      carve(&ints, n)[:0],
		group:        carve(&ints, n),
		costUS:       carve(&floats, n),
		queue:        carve(&floats, n),
		backlog:      carve(&floats, n),
		procAcc:      carve(&floats, n),
		emitAcc:      carve(&floats, n),
		queueAcc:     carve(&floats, n),
		cpuAcc:       carve(&floats, n),
		netBitsAcc:   carve(&floats, n),
		backlogStart: carve(&floats, n),
		backlogAcc:   carve(&floats, n),
		alloc:        carve(&floats, n),
		need:         carve(&floats, n),
		active:       carve(&ints, n)[:0],
	}
	for _, edge := range q.Edges {
		e.downs[edge[0]] = append(e.downs[edge[0]], edge[1])
	}
	e.sourceIdx = q.Sources()

	// Group the operators by host: first use fixes a host's group, and a
	// group lists its operators in index order.
	for i, h := range p {
		g := slices.Index(e.hosts, h)
		if g < 0 {
			g = len(e.hosts)
			e.hosts = append(e.hosts, h)
		}
		e.group[i] = g
	}
	for g := range e.hosts {
		for i, gi := range e.group {
			if gi == g {
				e.members = append(e.members, i)
			}
		}
		e.start = append(e.start, len(e.members))
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range q.Ops {
		noise := math.Exp(rng.NormFloat64() * cfg.NoiseStd)
		e.costUS[i] = e.baseUS[i] * noise * e.gc[i]
	}
	return e
}

// carve returns the next n elements of *slab, capped at n, and advances
// *slab past them, so that one allocation backs a run's fixed-size slices.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// hostCPUAlloc water-fills capacity core-seconds across the CPU demand of
// one host's operators. want[k] is the number of tuples ops[k] would like
// to process this step; returns allocated core-seconds per op for this
// step, in engine-owned scratch that the next call overwrites.
func (e *engine) hostCPUAlloc(ops []int, want []float64, capacity float64) []float64 {
	alloc, need, active := e.alloc[:len(ops)], e.need[:len(ops)], e.active[:0]
	clear(alloc)
	for k, i := range ops {
		need[k] = want[k] * e.costUS[i] / 1e6 // core-seconds
		if need[k] > 0 {
			active = append(active, k)
		}
	}
	for len(active) > 0 && capacity > 1e-15 {
		fair := capacity / float64(len(active))
		progressed := false
		next := active[:0]
		for _, k := range active {
			if need[k] <= fair {
				alloc[k] += need[k]
				capacity -= need[k]
				need[k] = 0
				progressed = true
			} else {
				next = append(next, k)
			}
		}
		active = next
		if !progressed {
			for _, k := range active {
				alloc[k] += fair
				need[k] -= fair
			}
			capacity = 0
			break
		}
	}
	return alloc
}

func (e *engine) run() *Metrics {
	if e.crashed {
		return e.crashMetrics()
	}
	dt := e.cfg.StepS
	fSteps, fWarm := e.cfg.stepCounts()
	steps, warmSteps := int(fSteps), int(fWarm)

	// Per-step values that do not change between steps: each operator's
	// expected same-step arrivals and each source's producer events; each
	// group's core-seconds and outgoing network budget in bits.
	n, ng := len(e.q.Ops), len(e.hosts)
	floats := make([]float64, 5*n+3*ng)
	inDt, eventsDt := carve(&floats, n), carve(&floats, n)
	coreS, budget := carve(&floats, ng), carve(&floats, ng)
	for i := range inDt {
		inDt[i] = e.rates.In[i] * dt
	}
	for _, src := range e.sourceIdx {
		eventsDt[src] = e.q.Ops[src].EventRate * dt
	}
	for g, h := range e.hosts {
		coreS[g] = e.c.Hosts[h].Cores() * dt
		budget[g] = e.c.Hosts[h].NetBandwidthMbps * mbitToBits * dt
	}

	arrivals, processed := carve(&floats, n), carve(&floats, n)
	want := carve(&floats, n) // CPU demand in tuples, laid out like members
	netBudget := carve(&floats, ng)

	measuring := false
	for s := 0; s < steps; s++ {
		if s == warmSteps {
			measuring = true
			for _, src := range e.sourceIdx {
				e.backlogStart[src] = e.backlog[src]
			}
		}
		// Broker receives producer events.
		for _, src := range e.sourceIdx {
			e.backlog[src] += eventsDt[src]
		}
		clear(arrivals)
		copy(netBudget, budget)

		// CPU allocation per host based on queued + pending work.
		for g := range e.hosts {
			ops, want := e.members[e.start[g]:e.start[g+1]], want[e.start[g]:e.start[g+1]]
			for k, i := range ops {
				// Include expected same-step arrivals so pipelines
				// are not artificially staggered.
				if e.q.Ops[i].Type == stream.OpSource {
					want[k] = e.backlog[i] + inDt[i]
				} else {
					want[k] = e.queue[i] + inDt[i]
				}
			}
			alloc := e.hostCPUAlloc(ops, want, coreS[g])
			for k, i := range ops {
				processed[i] = alloc[k] * 1e6 / e.costUS[i] // tuples processable
				if measuring {
					e.cpuAcc[i] += alloc[k]
				}
			}
		}

		// Data movement in topological order.
		for _, i := range e.order {
			typ := e.q.Ops[i].Type
			var avail float64
			if typ == stream.OpSource {
				avail = e.backlog[i]
			} else {
				e.queue[i] += arrivals[i]
				if e.queue[i] > queueCapTuples {
					// Bounded queue: excess is refused; refusal
					// propagates as reduced upstream emission next
					// steps via the blocking term below.
					e.queue[i] = queueCapTuples
				}
				avail = e.queue[i]
			}
			proc := math.Min(processed[i], avail)

			// Blocking: emission is broadcast to every downstream, so it
			// is limited by the tightest downstream queue — consulting
			// only the first downstream would under-charge backpressure
			// on fan-out plans.
			downs := e.downs[i]
			if len(downs) > 0 && e.outRatio[i] > 0 {
				minFree := math.Inf(1)
				for _, d := range downs {
					free := queueCapTuples - e.queue[d]
					if free < 0 {
						free = 0
					}
					if free < minFree {
						minFree = free
					}
				}
				maxProc := minFree / e.outRatio[i]
				if proc > maxProc {
					proc = maxProc
				}
			}
			// Network: every cross-host downstream consumes sender
			// bandwidth separately (one copy of the stream per remote
			// consumer): demand's bits, per step. For the paper's
			// tree-shaped plans (exactly one consumer, enforced by
			// Query.Validate) this reduces exactly to the single-edge
			// charge.
			if remote := e.remote[i]; remote > 0 {
				g := e.group[i]
				bits := proc * e.outRatio[i] * e.rates.TupleBytes[i] * bitsPerByte * remote
				if bits > netBudget[g] {
					scale := 0.0
					if bits > 0 {
						scale = netBudget[g] / bits
					}
					proc *= scale
					bits = netBudget[g]
				}
				netBudget[g] -= bits
				if measuring {
					e.netBitsAcc[i] += bits
				}
			}

			out := proc * e.outRatio[i]
			if typ == stream.OpSource {
				e.backlog[i] -= proc
			} else {
				e.queue[i] -= proc
			}
			for _, d := range downs {
				arrivals[d] += out
			}
			if typ == stream.OpSink && measuring {
				e.sinkArrived += proc
			}
			if measuring {
				e.procAcc[i] += proc
				e.emitAcc[i] += out
			}
		}
		if measuring {
			e.measTime += dt
			for i := range e.queue {
				e.queueAcc[i] += e.queue[i] * dt
			}
			for _, src := range e.sourceIdx {
				e.backlogAcc[src] += e.backlog[src] * dt
			}
		}
	}
	return e.finish()
}

func (e *engine) crashMetrics() *Metrics {
	m := &Metrics{
		Success:         false,
		Crashed:         true,
		Backpressured:   true, // a dying pipeline stops consuming
		HostMemPressure: e.memPressure,
		PerOp:           make([]OpStats, len(e.q.Ops)),
	}
	for i := range e.q.Ops {
		m.PerOp[i] = OpStats{Host: e.p[i]}
	}
	// Backpressure rate: the full input load queues up.
	for _, src := range e.sourceIdx {
		m.BackpressureRate += e.q.Ops[src].EventRate
	}
	return m
}

func (e *engine) finish() *Metrics {
	n := len(e.q.Ops)
	m := &Metrics{
		HostMemPressure: e.memPressure,
		PerOp:           make([]OpStats, n),
	}
	mt := e.measTime
	if mt <= 0 {
		mt = 1
	}
	m.SinkTuples = e.sinkArrived
	m.ThroughputTPS = e.sinkArrived / mt

	// Per-op stats.
	for i := range e.q.Ops {
		host := e.p[i]
		cores := e.c.Hosts[host].Cores()
		stats := OpStats{
			Host:        host,
			OutRate:     e.emitAcc[i] / mt,
			AvgQueue:    e.queueAcc[i] / mt,
			NetOutMbps:  e.netBitsAcc[i] / mt / mbitToBits,
			ServiceRate: e.procAcc[i] / mt,
		}
		if cores > 0 {
			stats.CPUUtil = (e.cpuAcc[i] / mt) / cores
		}
		// In-rate: what upstream emitted toward this op (or the source's
		// own consumption).
		if e.q.Ops[i].Type == stream.OpSource {
			stats.InRate = e.procAcc[i] / mt
		} else {
			var in float64
			for _, u := range e.q.Upstream(i) {
				in += e.emitAcc[u] / mt
			}
			stats.InRate = in
		}
		m.PerOp[i] = stats
	}

	// Backpressure: broker backlog growth over the measurement window.
	var rate float64
	for _, src := range e.sourceIdx {
		growth := (e.backlog[src] - e.backlogStart[src]) / mt
		if growth > 0.5 {
			rate += growth
		}
	}
	m.BackpressureRate = rate
	m.Backpressured = rate > 0.5

	// Success: at least one tuple at the sink, no crash.
	m.Success = e.sinkArrived >= 1
	m.Crashed = false

	// Latency: critical path from sources to sink over time-averaged
	// queueing, service, window residence and network terms.
	lp := e.pathLatencyMS(e.q.Sink())
	m.ProcLatencyMS = lp

	// End-to-end latency adds broker wait: time events spend in the
	// broker before the source consumes them (oldest-tuple semantics ->
	// max over sources).
	maxWait := 0.0
	for _, src := range e.sourceIdx {
		avgBacklog := e.backlogAcc[src] / mt
		cons := e.procAcc[src] / mt
		if cons < 1e-9 {
			cons = 1e-9
		}
		w := avgBacklog / cons * 1000
		if w > maxWait {
			maxWait = w
		}
	}
	m.E2ELatencyMS = lp + brokerBaseWaitMS + maxWait
	if !m.Success {
		m.ThroughputTPS = 0
	}
	return m
}

// pathLatencyMS returns the worst-case (oldest contributing tuple) latency
// from any source to operator i, in milliseconds.
func (e *engine) pathLatencyMS(i int) float64 {
	if i < 0 {
		return 0
	}
	mt := e.measTime
	if mt <= 0 {
		mt = 1
	}
	op := e.q.Ops[i]
	host := e.p[i]

	// Queue wait (Little's law) + service time + GC pauses.
	var own float64
	served := e.procAcc[i] / mt
	if served > 1e-9 {
		own += (e.queueAcc[i] / mt) / served * 1000
	} else if e.queueAcc[i]/mt > 1 {
		own += e.cfg.DurationS * 1000 // starved but backlogged: saturated
	}
	own += e.costUS[i] / 1e3 / e.c.Hosts[host].Cores() // service in ms
	own += gcPauseMS(e.memPressure[host])

	// Window residence: the oldest tuple of a firing window is a full
	// window extent old.
	if op.Window != nil {
		inRate := 0.0
		for _, u := range e.q.Upstream(i) {
			r := e.emitAcc[u] / mt
			if r > inRate {
				inRate = r
			}
		}
		if inRate <= 1e-9 {
			inRate = 1e-9
		}
		own += op.Window.ExtentSeconds(inRate) * 1000
	}

	ups := e.q.Upstream(i)
	if len(ups) == 0 {
		return own
	}
	worst := 0.0
	for _, u := range ups {
		l := e.pathLatencyMS(u) + e.netLatencyMS(u, i)
		if l > worst {
			worst = l
		}
	}
	return worst + own
}

// netLatencyMS returns the network latency contribution of edge u->v:
// propagation plus serialization/transfer under the link's achieved
// utilization, with congestion queueing when the link runs hot.
func (e *engine) netLatencyMS(u, v int) float64 {
	src, dst := e.p[u], e.p[v]
	if src == dst {
		return 0
	}
	mt := e.measTime
	if mt <= 0 {
		mt = 1
	}
	prop := e.c.LinkLatencyMS(src, dst)
	bw := e.c.LinkBandwidthMbps(src, dst) * mbitToBits
	if bw <= 0 {
		return prop
	}
	transfer := e.rates.TupleBytes[u] * bitsPerByte / bw * 1000
	// Congestion: total outgoing utilization of the sender host.
	var hostBits float64
	g := e.group[u]
	for _, i := range e.members[e.start[g]:e.start[g+1]] {
		hostBits += e.netBitsAcc[i] / mt
	}
	util := hostBits / (e.c.Hosts[src].NetBandwidthMbps * mbitToBits)
	if util > networkCongestion {
		over := math.Min(util, 0.99)
		transfer *= 1 / (1 - over)
		prop *= 1 + 2*(over-networkCongestion)
	}
	return prop + transfer
}
