package controlplane

import (
	"sync"

	"costream/internal/obs"
)

// cpMetrics aggregates control-plane activity in the default registry.
// All families are created eagerly at first use so the CI smoke can
// assert their presence even before a given kind fires.
type cpMetrics struct {
	deployments *obs.Gauge
	migrations  *obs.Counter
	suppressed  *obs.Counter
	tickSeconds *obs.Histogram

	// qerrThroughput and qerrProcLatency are costream_monitor_qerror:
	// the q-errors of every observation Observe makes, in milli-units.
	qerrThroughput  *obs.Histogram
	qerrProcLatency *obs.Histogram

	// violations holds one counter per Violation* kind, the only kinds
	// Policy.Heal reports.
	violations map[string]*obs.Counter
}

var met = sync.OnceValue(func() *cpMetrics {
	r := obs.Default()
	m := &cpMetrics{
		deployments: r.Gauge("costream_controlplane_deployments",
			"queries currently registered with the placement control plane"),
		migrations: r.Counter("costream_controlplane_migrations_total",
			"placement changes activated by the control plane (drift migrations plus forced replacements)"),
		suppressed: r.Counter("costream_controlplane_suppressed_total",
			"re-optimizations whose result was suppressed (hysteresis or unchanged incumbent)"),
		tickSeconds: r.Histogram("costream_controlplane_tick_seconds",
			"control-loop tick latency", 1e-9),
		violations: map[string]*obs.Counter{},
	}
	qerr := func(metric string) *obs.Histogram {
		return r.Histogram("costream_monitor_qerror",
			"observed-vs-predicted q-error of deployed placements, fed by the control plane",
			1e-3, "metric", metric)
	}
	m.qerrThroughput, m.qerrProcLatency = qerr("throughput"), qerr("proc_latency")
	for _, kind := range []string{
		ViolationUndeployed, ViolationDeadHost, ViolationCordonedHost,
		ViolationObservedFailure, ViolationQErrorDrift,
	} {
		m.violations[kind] = r.Counter("costream_controlplane_violations_total",
			"control-plane violations detected, by kind", "kind", kind)
	}
	return m
})
