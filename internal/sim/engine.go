package sim

import (
	"fmt"
	"math"
	"math/rand"

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

// Run executes the query under the given placement on the cluster and
// returns the measured cost metrics. It is deterministic in (inputs, seed).
func Run(q *stream.Query, c *hardware.Cluster, p Placement, cfg Config) (*Metrics, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("invalid query: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("invalid cluster: %w", err)
	}
	if err := p.Validate(q, c); err != nil {
		return nil, fmt.Errorf("invalid placement: %w", err)
	}
	if cfg.StepS <= 0 || cfg.DurationS <= 0 {
		return nil, fmt.Errorf("invalid config: step=%v duration=%v", cfg.StepS, cfg.DurationS)
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
	rng   *rand.Rand

	order    []int     // topological order of operators
	downs    [][]int   // consumers per operator, in edge order (Query.Downstream)
	costUS   []float64 // noisy per-tuple cost incl. GC slowdown
	outRatio []float64 // emitted per processed tuple
	queue    []float64 // input queue length (tuples)

	// Broker state, one stream per source operator index.
	sourceIdx []int
	backlog   map[int]float64

	// Memory.
	memPressure []float64 // per host
	crashed     bool

	// Measurement accumulators.
	measTime     float64
	procAcc      []float64 // tuples processed per op
	emitAcc      []float64 // tuples emitted per op
	queueAcc     []float64 // queue length integral
	cpuAcc       []float64 // core-seconds consumed per op
	netBitsAcc   []float64 // outgoing bits per op (cross-host only)
	backlogStart map[int]float64
	backlogAcc   map[int]float64
	sinkArrived  float64

	// Water-fill scratch of hostCPUAlloc, sized for the whole query so the
	// step loop allocates nothing.
	alloc, need []float64
	active      []int
}

func newEngine(q *stream.Query, c *hardware.Cluster, p Placement, r *stream.Rates, cfg Config) *engine {
	n := len(q.Ops)
	order, _ := q.TopoOrder()
	e := &engine{
		q: q, c: c, p: p, rates: r, cfg: cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		order:        order,
		costUS:       make([]float64, n),
		outRatio:     make([]float64, n),
		queue:        make([]float64, n),
		backlog:      make(map[int]float64),
		memPressure:  make([]float64, len(c.Hosts)),
		procAcc:      make([]float64, n),
		emitAcc:      make([]float64, n),
		queueAcc:     make([]float64, n),
		cpuAcc:       make([]float64, n),
		netBitsAcc:   make([]float64, n),
		backlogStart: make(map[int]float64),
		backlogAcc:   make(map[int]float64),
		downs:        make([][]int, n),
		alloc:        make([]float64, n),
		need:         make([]float64, n),
		active:       make([]int, 0, n),
	}
	for _, edge := range q.Edges {
		e.downs[edge[0]] = append(e.downs[edge[0]], edge[1])
	}
	e.sourceIdx = q.Sources()
	for _, s := range e.sourceIdx {
		e.backlog[s] = 0
	}

	// Memory pressure per host from window state of the operators placed
	// there; determined by logical extents, fixed for the run.
	memUsed := make([]float64, len(c.Hosts))
	for h := range c.Hosts {
		memUsed[h] = hostBaseMemBytes
	}
	for i := range q.Ops {
		memUsed[p[i]] += perOpMemBytes + stateBytes(q, r, i)
	}
	for h, host := range c.Hosts {
		e.memPressure[h] = memUsed[h] / (host.RAMBytes() * heapFraction)
		if e.memPressure[h] > crashPressure {
			e.crashed = true
		}
	}

	// Per-operator noisy costs with GC slowdown baked in.
	for i := range q.Ops {
		noise := math.Exp(e.rng.NormFloat64() * cfg.NoiseStd)
		e.costUS[i] = perTupleCostUS(q, r, i) * noise * gcSlowdown(e.memPressure[p[i]])
		in := r.In[i]
		if q.Ops[i].Type == stream.OpSource {
			in = r.Out[i] // sources "process" their own emission stream
		}
		if in > 0 {
			e.outRatio[i] = r.Out[i] / in
		}
	}
	return e
}

// hostCPUAlloc water-fills the host's cores across the CPU demand of its
// operators. want[i] is the number of tuples op i would like to process
// this step; returns allocated core-seconds per op for this step, in
// engine-owned scratch that the next call overwrites.
func (e *engine) hostCPUAlloc(ops []int, want []float64, dt float64) []float64 {
	alloc, need, active := e.alloc[:len(ops)], e.need[:len(ops)], e.active[:0]
	clear(alloc)
	for k, i := range ops {
		need[k] = want[k] * e.costUS[i] / 1e6 // core-seconds
		if need[k] > 0 {
			active = append(active, k)
		}
	}
	capacity := e.c.Hosts[e.p[ops[0]]].Cores() * dt
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
	total := e.cfg.WarmupS + e.cfg.DurationS
	steps := int(math.Round(total / dt))
	warmSteps := int(math.Round(e.cfg.WarmupS / dt))

	// Group operators by host once.
	hostOps := make(map[int][]int)
	for i := range e.q.Ops {
		hostOps[e.p[i]] = append(hostOps[e.p[i]], i)
	}

	n := len(e.q.Ops)
	arrivals := make([]float64, n)
	processed := make([]float64, n)
	wantBuf := make(map[int][]float64)
	for h, ops := range hostOps {
		wantBuf[h] = make([]float64, len(ops))
	}
	// Per-host outgoing network budget in bits per step.
	netBudget := make([]float64, len(e.c.Hosts))

	measuring := false
	for s := 0; s < steps; s++ {
		if s == warmSteps {
			measuring = true
			for src, b := range e.backlog {
				e.backlogStart[src] = b
			}
		}
		// Broker receives producer events.
		for _, src := range e.sourceIdx {
			e.backlog[src] += e.q.Ops[src].EventRate * dt
		}
		for i := range arrivals {
			arrivals[i] = 0
		}
		for h := range netBudget {
			netBudget[h] = e.c.Hosts[h].NetBandwidthMbps * mbitToBits * dt
		}

		// CPU allocation per host based on queued + pending work.
		for h, ops := range hostOps {
			want := wantBuf[h]
			for k, i := range ops {
				if e.q.Ops[i].Type == stream.OpSource {
					want[k] = e.backlog[i]
				} else {
					want[k] = e.queue[i]
				}
				// Include expected same-step arrivals so pipelines
				// are not artificially staggered.
				want[k] += e.rates.In[i] * dt
			}
			alloc := e.hostCPUAlloc(ops, want, dt)
			for k, i := range ops {
				cap := alloc[k] * 1e6 / e.costUS[i] // tuples processable
				processed[i] = cap
				if measuring {
					e.cpuAcc[i] += alloc[k]
				}
			}
		}

		// Data movement in topological order.
		for _, i := range e.order {
			op := e.q.Ops[i]
			var avail float64
			if op.Type == stream.OpSource {
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
			// consumer). For the paper's tree-shaped plans (exactly one
			// consumer, enforced by Query.Validate) this reduces exactly
			// to the single-edge charge.
			if len(downs) > 0 {
				src := e.p[i]
				remote := 0
				for _, d := range downs {
					if e.p[d] != src {
						remote++
					}
				}
				if remote > 0 {
					bits := proc * e.outRatio[i] * e.rates.TupleBytes[i] * bitsPerByte * float64(remote)
					if bits > netBudget[src] {
						scale := 0.0
						if bits > 0 {
							scale = netBudget[src] / bits
						}
						proc *= scale
						bits = netBudget[src]
					}
					netBudget[src] -= bits
					if measuring {
						e.netBitsAcc[i] += bits
					}
				}
			}

			out := proc * e.outRatio[i]
			if op.Type == stream.OpSource {
				e.backlog[i] -= proc
			} else {
				e.queue[i] -= proc
			}
			for _, d := range downs {
				arrivals[d] += out
			}
			if op.Type == stream.OpSink && measuring {
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
		HostMemPressure: append([]float64(nil), e.memPressure...),
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
		HostMemPressure: append([]float64(nil), e.memPressure...),
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
	for i := range e.q.Ops {
		if e.p[i] == src {
			hostBits += e.netBitsAcc[i] / mt
		}
	}
	util := hostBits / (e.c.Hosts[src].NetBandwidthMbps * mbitToBits)
	if util > networkCongestion {
		over := math.Min(util, 0.99)
		transfer *= 1 / (1 - over)
		prop *= 1 + 2*(over-networkCongestion)
	}
	return prop + transfer
}
