package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// round is what the measurement loop recorded for one round: a fixed
// number of ops, each followed by one reference unit.
type round struct {
	unit      refUnit
	opNS      []float64 // duration of each op
	kernelNS  float64   // time spent in reference kernel calls
	echoNS    float64   // time spent in reference echo round trips
	cpuNS     float64   // process CPU (user+system) over the round
	mallocs   float64   // heap objects allocated over the round
	allocB    float64   // heap bytes allocated over the round
	gcCycles  float64
	gcPauseNS float64
}

func (r *round) refNS() float64 { return r.kernelNS + r.echoNS }

// refCPUNS is the processor time of the round's reference work, taken to
// be its wall time on every lane.
func (r *round) refCPUNS() float64 { return r.kernelNS*float64(r.unit.lanes) + r.echoNS }

// scale is the factor that turns a duration measured in this round into
// a normalised one: the nominal time of the round's reference units over
// the time they took.
func (r *round) scale() float64 {
	return r.unit.nominalNS() * float64(len(r.opNS)) / r.refNS()
}

func (r *round) opSum() float64 {
	s := 0.0
	for _, x := range r.opNS {
		s += x
	}
	return s
}

// summary is the arithmetic from recorded rounds to reported metrics.
type summary struct {
	ops int

	throughputNorm float64 // ops per normalised second of op time, median over rounds
	p50NormMS      float64 // pooled normalised op latencies
	tailNormMS     float64
	cpuNormMS      float64 // per op, median over rounds
	// The two allocation figures are medians over rounds: a run has a
	// handful of GC cycles, each of which makes the program refill its
	// buffer pools, and one cycle more or less moved the mean by 3 %.
	allocsPerOp  float64
	allocKBPerOp float64

	refUS, echoUS                float64 // reference call times, median over rounds
	refCV                        float64 // spread of the rounds' scales: how unsteady the machine was
	rawThroughput                float64
	rawP50MS, rawP99MS, rawCPUMS float64
	gcCyclesPerKop, gcPauseMSKop float64
}

// informational are the figures about the run itself that both kinds of
// run print: un-normalised timings, the reference, the collector.
func (s summary) informational() map[string]float64 {
	return map[string]float64{
		"raw.throughput_ops_s":        s.rawThroughput,
		"raw.latency_p50_ms":          s.rawP50MS,
		"raw.latency_p99_ms":          s.rawP99MS,
		"raw.cpu_ms_per_op":           s.rawCPUMS,
		"bench.ref_us":                s.refUS,
		"bench.echo_us":               s.echoUS,
		"bench.ref_cv":                s.refCV,
		"runtime.gc_cycles_per_kop":   s.gcCyclesPerKop,
		"runtime.gc_pause_ms_per_kop": s.gcPauseMSKop,
	}
}

// summarize reduces rounds to metrics. refBytes is what one reference
// kernel call allocates; tailPct is the workload's tail percentile.
func summarize(rounds []round, refBytes, tailPct float64) summary {
	var s summary
	var norm, raw, thr, cpu, refs, echoes, scales, mallocs, allocB []float64
	var opNS, cpuNS, gcC, gcP float64
	for i := range rounds {
		r := &rounds[i]
		k := r.scale()
		n := float64(len(r.opNS))
		for _, x := range r.opNS {
			norm = append(norm, x*k)
			raw = append(raw, x)
		}
		sum := r.opSum()
		thr = append(thr, n/(sum*k*1e-9))
		cpu = append(cpu, (r.cpuNS-r.refCPUNS())/n*k)
		kernelCalls := n * float64(r.unit.kernelCalls)
		refs = append(refs, r.kernelNS*float64(r.unit.lanes)/kernelCalls)
		if r.unit.echoCalls > 0 {
			echoes = append(echoes, r.echoNS/(n*float64(r.unit.echoCalls)))
		}
		scales = append(scales, k)
		s.ops += len(r.opNS)
		opNS += sum
		cpuNS += r.cpuNS - r.refCPUNS()
		mallocs = append(mallocs, (r.mallocs-refAllocs*kernelCalls)/n)
		allocB = append(allocB, (r.allocB-refBytes*kernelCalls)/n)
		gcC += r.gcCycles
		gcP += r.gcPauseNS
	}
	ops := float64(s.ops)
	s.throughputNorm = median(thr)
	s.p50NormMS = percentile(norm, 50) / 1e6
	s.tailNormMS = percentile(norm, tailPct) / 1e6
	s.cpuNormMS = median(cpu) / 1e6
	s.allocsPerOp = median(mallocs)
	s.allocKBPerOp = median(allocB) / 1024
	s.refUS = median(refs) / 1e3
	if len(echoes) > 0 {
		s.echoUS = median(echoes) / 1e3
	}
	s.refCV = stddev(scales) / mean(scales)
	s.rawThroughput = ops / (opNS * 1e-9)
	s.rawP50MS = percentile(raw, 50) / 1e6
	s.rawP99MS = percentile(raw, 99) / 1e6
	s.rawCPUMS = cpuNS / ops / 1e6
	s.gcCyclesPerKop = gcC / ops * 1e3
	s.gcPauseMSKop = gcP / 1e6 / ops * 1e3
	return s
}

// measureRound runs ops timed ops, each followed by one reference unit
// on the same goroutine, and records the process counters around them.
// A failed op still took its time, so it stays in the round; its error is
// returned in errs. A failing reference ends the run: without it nothing
// measured can be reported.
func measureRound(ops int, unit refUnit, ref *reference, op func(i int) error) (r round, errs []error, err error) {
	r = round{unit: unit, opNS: make([]float64, 0, ops)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t := time.Now()
	for i := 0; i < ops; i++ {
		opErr := op(i)
		opEnd := time.Now()
		kernel, echo, end, err := ref.run(unit, opEnd)
		if err != nil {
			return r, errs, err
		}
		r.opNS = append(r.opNS, float64(opEnd.Sub(t)))
		r.kernelNS += float64(kernel)
		r.echoNS += float64(echo)
		t = end
		if opErr != nil {
			errs = append(errs, opErr)
		}
	}
	r.cpuNS = float64(cpuTime() - cpu0)
	runtime.ReadMemStats(&m1)
	r.mallocs = float64(m1.Mallocs - m0.Mallocs)
	r.allocB = float64(m1.TotalAlloc - m0.TotalAlloc)
	r.gcCycles = float64(m1.NumGC - m0.NumGC)
	r.gcPauseNS = float64(m1.PauseTotalNs - m0.PauseTotalNs)
	return r, errs, nil
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapRetainedMB is the live heap after a forced collection.
func heapRetainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// percentile is the p-th percentile of xs by linear interpolation
// between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64) float64 {
	m, s := mean(xs), 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}
