package main

import (
	"fmt"
	"math"
	"os"
)

// metricValue is one metric of a result, in the driver's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// info are figures the untraced run prints next to the gated ones
	// (raw, un-normalised timings); they are not part of the result line.
	info map[string]metricValue
}

// named gives the values the names and units of defs. With every set it
// reports a catalogue entry without a value; a value that is not a number
// is always an error.
func named(defs []metricDef, values map[string]float64, every bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !every {
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

// newResult builds the result of a run whose metrics are all of defs.
func newResult(t *tally, defs []metricDef, values map[string]float64) (*result, error) {
	m, err := named(defs, values, true)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, err
}

// params are the settings of one run.
type params struct {
	w          *workload
	rec        recipe
	seed       int64
	seconds    float64
	setupTimes int
	logf       func(format string, args ...any)
	// subjects are the request subjects; nil generates them. The tests
	// share one pool between their runs.
	subjects *pool
}

// scratchDir makes a directory for the run's artifact under out/.
func scratchDir() (dir string, remove func(), err error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp("out", "run-")
	return dir, func() { os.RemoveAll(dir) }, err
}

func (p params) rounds() int {
	return max(2, int(math.Round(p.seconds/p.w.roundS)))
}

// tally counts ops and failed output checks, and keeps the first few
// failures for the log.
type tally struct {
	attempted, failed int
	logf              func(format string, args ...any)
}

func (t *tally) add(ops int, errs []error) {
	t.attempted += ops
	for _, err := range errs {
		if t.failed < 5 {
			t.logf("failed op: %v", err)
		}
		t.failed++
	}
}

// session is what both kinds of run start from: the reference, the
// fixture and the workload's driver.
type session struct {
	ref      *reference
	refBytes float64 // what one reference kernel call allocates
	f        *fixture
	setupS   float64
	d        driver
	remove   func()
}

func openSession(p params) (*session, error) {
	s := &session{}
	var err error
	if s.ref, err = newReference(); err != nil {
		return nil, err
	}
	if s.refBytes, err = s.ref.calibrate(); err != nil {
		s.ref.close()
		return nil, err
	}
	dir, remove, err := scratchDir()
	if err != nil {
		s.ref.close()
		return nil, err
	}
	s.remove = remove
	if s.f, s.setupS, err = setUp(p, dir); err != nil {
		remove()
		s.ref.close()
		return nil, err
	}
	if s.d, err = p.w.start(s.f, p.seed, p.w.opsPerRound); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) close() {
	s.f.close()
	s.remove()
	s.ref.close()
}

// measure runs the warm-up round and p.rounds() measured rounds. With a
// tracer, every other measured round has a span around each op, so that
// traced and untraced throughput are taken under the same machine
// conditions.
func (s *session) measure(p params, t *tally, tr *tracer) ([]round, error) {
	d, rounds := s.d, p.rounds()
	out := make([]round, 0, rounds)
	for r := -1; r < rounds; r++ {
		if err := d.prepare(r, rounds); err != nil {
			return nil, fmt.Errorf("preparing round %d: %w", r, err)
		}
		op := d.op
		if tr != nil && r >= 0 && r%2 == 1 {
			op = tr.wrap("op."+p.w.name, d.op)
		}
		if r == 0 && tr != nil && tr.warmed != nil {
			if err := tr.warmed(); err != nil {
				return nil, err
			}
		}
		rd, errs, err := measureRound(p.w.opsPerRound, p.w.ref, s.ref, op)
		if err != nil {
			return nil, err
		}
		t.add(p.w.opsPerRound, errs)
		t.add(0, d.settle())
		if r >= 0 {
			out = append(out, rd)
		}
	}
	return out, nil
}

// runEndToEnd is the untraced run: set-up, measured rounds, and the
// end-to-end metrics.
func runEndToEnd(p params) (*result, error) {
	ses, err := openSession(p)
	if err != nil {
		return nil, err
	}
	defer ses.close()
	f := ses.f
	p.logf("set-up %.2fs (x%d, median): corpus %.2fs, train %.2fs", ses.setupS, p.setupTimes, f.genTracesS, f.trainS)

	t := &tally{logf: p.logf}
	rounds, err := ses.measure(p, t, nil)
	if err != nil {
		return nil, err
	}
	s := summarize(rounds, ses.refBytes, p.w.tailPct)
	p.logf("%d ops in %d rounds; reference kernel %.2fus, echo %.2fus (cv %.3f); raw %.1f ops/s, p50 %.4fms",
		s.ops, len(rounds), s.refUS, s.echoUS, s.refCV, s.rawThroughput, s.rawP50MS)

	qerr, speedup := f.qerrP50, f.speedupP50
	if own, ok := ses.d.(interface {
		quality() (qerr, speedup float64)
	}); ok {
		qerr, speedup = own.quality()
	}
	res, err := newResult(t, endToEnd, map[string]float64{
		"setup_s":               ses.setupS,
		"throughput_norm_ops_s": s.throughputNorm,
		"latency_p50_norm_ms":   s.p50NormMS,
		"latency_tail_norm_ms":  s.tailNormMS,
		"cpu_norm_ms_per_op":    s.cpuNormMS,
		"allocs_per_op":         s.allocsPerOp,
		"alloc_kb_per_op":       s.allocKBPerOp,
		"heap_retained_mb":      heapRetainedMB(),
		"heldout_qerr_p50":      qerr,
		"placement_speedup_p50": speedup,
	})
	if err != nil {
		return nil, err
	}
	res.info, err = named(perLayer, s.informational(), false)
	return res, err
}
