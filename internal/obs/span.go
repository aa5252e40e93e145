package obs

import (
	"strings"
	"sync/atomic"
	"time"
)

// spanSeed decorrelates trace IDs across process restarts; spanCtr makes
// them unique within a process. Neither is cryptographic — trace IDs are
// correlation handles, not secrets.
var (
	spanSeed = uint64(time.Now().UnixNano()) * 0x9E3779B97F4A7C15
	spanCtr  atomic.Uint64
)

// Stage is one timed segment of a span.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Span is a lightweight request-scoped trace: a generated trace ID, a
// start time, and an ordered list of named stage timings. It models one
// pipeline pass (decode -> cache -> predict -> encode, or one search
// run) rather than a distributed trace tree; stages are appended by the
// single goroutine driving the request.
type Span struct {
	id     uint64
	name   string
	start  time.Time
	mark   time.Time
	total  time.Duration
	stages []Stage
}

// StartSpan begins a span named name with a fresh trace ID.
func StartSpan(name string) *Span {
	now := time.Now()
	n := spanCtr.Add(1)
	id := (spanSeed + n) * 0xBF58476D1CE4E5B9 // splitmix64-style mix
	id ^= id >> 31
	return &Span{id: id, name: name, start: now, mark: now}
}

// ID returns the span's trace ID as 16 hex digits.
func (s *Span) ID() string {
	var b [16]byte
	const hexdigits = "0123456789abcdef"
	v := s.id
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Name returns the span name.
func (s *Span) Name() string { return s.name }

// Stage closes the current stage as name, returning its duration. The
// next stage starts immediately.
func (s *Span) Stage(name string) time.Duration {
	now := time.Now()
	d := now.Sub(s.mark)
	s.mark = now
	s.stages = append(s.stages, Stage{Name: name, Dur: d})
	return d
}

// End finishes the span and returns its total duration. Time between
// the last Stage call and End is not attributed to any stage.
func (s *Span) End() time.Duration {
	s.total = time.Since(s.start)
	return s.total
}

// String renders "name id=... total stage=dur ..." for logs and debug
// output.
func (s *Span) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteString(" id=")
	b.WriteString(s.ID())
	if s.total > 0 {
		b.WriteString(" total=")
		b.WriteString(s.total.String())
	}
	for _, st := range s.stages {
		b.WriteByte(' ')
		b.WriteString(st.Name)
		b.WriteByte('=')
		b.WriteString(st.Dur.String())
	}
	return b.String()
}
