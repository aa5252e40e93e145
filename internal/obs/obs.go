// Package obs is the repo's zero-dependency observability core: a named
// metrics registry (atomic counters, float gauges, log-bucketed
// histograms with sharded, allocation-free hot-path recording),
// Prometheus text-format exposition, a JSONL run-log writer for training
// telemetry, and a shared pprof listener.
//
// The paper's premise is that predicted costs must track observed costs;
// this package is where "observed" comes from in production. Every layer
// records into a Registry — the serving HTTP layer, the placement search
// engine, the control plane's q-error monitor and the training loop — and
// one GET /metrics endpoint (Registry.Handler) exposes the lot. A request
// is traced the same way: its stage timings are histogram samples, so
// there is no separate span or log record to keep.
//
// Design constraints, in order:
//
//  1. Near-free on hot paths. Counter.Inc and Histogram.Record are a
//     handful of atomic operations with zero allocations (test-enforced),
//     so instrumentation can live inside inference and search loops.
//  2. No dependencies. Exposition is hand-rolled Prometheus text format;
//     tests check it with obstest.ValidateExposition.
//  3. Get-or-create registration. Components ask for their instruments by
//     (name, labels) and share them naturally; tests isolate with
//     NewRegistry, binaries use the process-wide Default registry.
package obs

import (
	"fmt"
	"sync"
)

// defaultRegistry is the process-wide registry behind Default.
var (
	defaultOnce     sync.Once
	defaultRegistry *Registry
)

// Default returns the process-wide registry. Library code (the placement
// search engine, the training loop, the online monitor) records here;
// the serving layer exposes it on /metrics. Tests that assert on exact
// values should use NewRegistry instead — Default accumulates for the
// process lifetime.
func Default() *Registry {
	defaultOnce.Do(func() { defaultRegistry = NewRegistry() })
	return defaultRegistry
}

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain
// ':', but we keep one rule — none of our names use colons).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func mustValidName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}
