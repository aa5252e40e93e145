package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must not be negative (counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instrument inside a family. Exactly one of the
// value sources is used, matching the family kind; fn, when non-nil,
// overrides the stored value at scrape time (CounterFunc / GaugeFunc).
type series struct {
	labels string // rendered {k="v",...}, or ""
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     atomic.Pointer[func() float64]
}

// family groups every series sharing one metric name.
type family struct {
	name string
	help string
	kind kind

	mu     sync.Mutex
	series map[string]*series
}

// Registry is a named collection of metric families. All methods are
// safe for concurrent use; instrument lookups are get-or-create, so
// independent components asking for the same (name, labels) share one
// instrument.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns alternating key-value pairs into a canonical
// `{k="v",...}` string (Prometheus escaping for values). It panics on an
// odd pair count or an invalid label name — instrument registration is
// programmer-controlled, so these are bugs, not runtime conditions.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label key-value list %q", kv))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", kv[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		for j := 0; j < len(v); j++ {
			switch v[j] {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(v[j])
			}
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// getFamily returns the family for name, creating it with the given kind
// and help on first use. Asking for an existing name with a different
// kind panics: one name means one metric type.
func (r *Registry) getFamily(name, help string, k kind) *family {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, k))
	}
	return f
}

// getSeries returns the family's series with the labels kv (alternating
// key, value), creating it on first use.
func (f *family) getSeries(kv []string) *series {
	labels := renderLabels(kv)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[labels]
	if !ok {
		s = &series{labels: labels}
		switch f.kind {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		}
		f.series[labels] = s
	}
	return s
}

// Counter returns the counter named name with the given constant labels
// (alternating key, value), creating it on first use.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	return r.getFamily(name, help, kindCounter).getSeries(kv).ctr
}

// Gauge returns the gauge named name with the given constant labels,
// creating it on first use.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	return r.getFamily(name, help, kindGauge).getSeries(kv).gauge
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for sources that already keep their own monotonic counters
// (cache hit counts, inference path stats). Re-registering the same
// (name, labels) replaces the callback, so short-lived owners (e.g. a
// rebuilt server sharing the default registry) always expose the live
// instance.
func (r *Registry) CounterFunc(name, help string, fn func() float64, kv ...string) {
	s := r.getFamily(name, help, kindCounter).getSeries(kv)
	s.fn.Store(&fn)
}

// GaugeFunc registers a gauge read from fn at scrape time; like
// CounterFunc, re-registration replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	s := r.getFamily(name, help, kindGauge).getSeries(kv)
	s.fn.Store(&fn)
}

// Histogram returns the histogram named name with the given constant
// labels, creating it on first use. Values are recorded as int64 in
// whatever unit the caller chooses; scale is the factor applied at
// exposition time to convert recorded units into the exposed base unit
// (e.g. record nanoseconds into a *_seconds histogram with scale 1e-9).
// The scale of an existing histogram is not changed by later calls.
func (r *Registry) Histogram(name, help string, scale float64, kv ...string) *Histogram {
	f := r.getFamily(name, help, kindHistogram)
	s := f.getSeries(kv)
	f.mu.Lock()
	if s.hist == nil {
		s.hist = newHistogram(scale)
	}
	h := s.hist
	f.mu.Unlock()
	return h
}

// value returns the series' scalar value for exposition (counter and
// gauge kinds).
func (s *series) value(k kind) float64 {
	if fp := s.fn.Load(); fp != nil {
		return (*fp)()
	}
	if k == kindCounter {
		return float64(s.ctr.Value())
	}
	return s.gauge.Value()
}

// formatValue renders a sample value the way Prometheus expects:
// integers without exponent, everything else shortest-form float.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every family in the text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// string, histograms as cumulative _bucket/_sum/_count triples with
// power-of-two le bounds (empty buckets are elided; +Inf always
// present). It stops at w's first error.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	var sers []*series
	for _, f := range fams {
		f.mu.Lock()
		sers = sers[:0]
		for _, s := range f.series {
			sers = append(sers, s)
		}
		f.mu.Unlock()
		sort.Slice(sers, func(i, j int) bool { return sers[i].labels < sers[j].labels })

		b.Reset()
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(strings.ReplaceAll(f.help, "\n", " "))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range sers {
			if f.kind == kindHistogram {
				writeHistogram(&b, f.name, s)
				continue
			}
			b.WriteString(f.name)
			b.WriteString(s.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value(f.kind)))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series as cumulative buckets plus
// sum and count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	snap := s.hist.Snapshot()
	scale := s.hist.scale
	// Label strings for sub-samples: splice le into existing labels.
	withLE := func(le string) string {
		if s.labels == "" {
			return `{le="` + le + `"}`
		}
		return s.labels[:len(s.labels)-1] + `,le="` + le + `"}`
	}
	cum := int64(0)
	for i := 0; i < histBuckets-1; i++ {
		if snap.Counts[i] == 0 {
			continue
		}
		cum += snap.Counts[i]
		le := formatValue(bucketUpper(i) * scale)
		b.WriteString(name)
		b.WriteString("_bucket")
		b.WriteString(withLE(le))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString("_bucket")
	b.WriteString(withLE("+Inf"))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(snap.Count, 10))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(s.labels)
	b.WriteByte(' ')
	b.WriteString(formatValue(float64(snap.Sum) * scale))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(s.labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(snap.Count, 10))
	b.WriteByte('\n')
}

// Handler returns an http.Handler serving the registry in Prometheus
// text exposition format — mount it on GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
