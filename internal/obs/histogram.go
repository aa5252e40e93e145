package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: bucket i holds values v with
// bits.Len64(v) == i, i.e. v in (2^(i-1)-1, 2^i-1] — log2-spaced bounds
// computed with one bit-length instruction, no search and no float math
// on the record path. Bucket 0 holds exactly zero (negatives clamp to
// it); the 64 finite buckets cover the full non-negative int64 range
// (nanosecond latencies up to ~292 years), so nothing ever overflows
// past the last bucket, which exposition labels le="+Inf".
const (
	histBuckets = 65 // bits.Len64 yields 0..64
	histShards  = 8
)

// histShard is one shard of a histogram's counters. Shards are recorded
// into independently and summed at snapshot time, so concurrent
// recorders on different Ps rarely contend on the same cache lines.
type histShard struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
}

// Histogram is a log2-bucketed histogram engineered for hot paths:
// Record is a shard checkout plus two atomic adds — no locks, no
// allocations (test-enforced), no time lookups. Aggregation (Snapshot,
// quantiles, exposition) walks all shards and is the slow path.
type Histogram struct {
	scale  float64 // exposition multiplier (recorded unit -> base unit)
	shards [histShards]histShard
	next   atomic.Uint32
	pool   sync.Pool
}

func newHistogram(scale float64) *Histogram {
	if scale == 0 {
		scale = 1
	}
	h := &Histogram{scale: scale}
	// The pool hands out pointers into the fixed shard array,
	// round-robin on first issue and per-P cached afterwards: recording
	// goroutines on the same P reuse the same shard without contention,
	// and Get/Put never allocate (pointer-shaped values fit an interface
	// word).
	h.pool.New = func() any {
		return &h.shards[(h.next.Add(1)-1)%histShards]
	}
	return h
}

// bucketIndex maps a recorded value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper is the inclusive upper bound of finite bucket i in
// recorded units.
func bucketUpper(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.Inf(1)
	}
	return float64((uint64(1) << i) - 1)
}

// Record adds one observation. Negative values clamp to zero, and the
// sum saturates at MaxInt64. Safe for any number of concurrent recorders;
// zero allocations.
func (h *Histogram) Record(v int64) {
	sh := h.pool.Get().(*histShard)
	sh.record(v)
	h.pool.Put(sh)
}

// record adds v to the shard. The sum only grows, so an Add that leaves
// it negative has passed MaxInt64 and stores MaxInt64, which stands: a
// later Add wraps it negative and stores the same. Snapshot reads a sum
// caught in between as MaxInt64.
func (sh *histShard) record(v int64) {
	sh.counts[bucketIndex(v)].Add(1)
	if v > 0 && sh.sum.Add(v) < 0 {
		sh.sum.Store(math.MaxInt64)
	}
}

// Since records the elapsed time from start until now, in nanoseconds.
func (h *Histogram) Since(start time.Time) {
	h.Record(int64(time.Since(start)))
}

// HistSnapshot is a point-in-time aggregation of a histogram.
type HistSnapshot struct {
	Counts [histBuckets]int64
	Sum    int64
	Count  int64
}

// Snapshot sums all shards, the sum saturating at MaxInt64. Concurrent
// Records may or may not be included; the result is internally
// consistent enough for monitoring (each bucket count is exact at some
// instant during the call).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < histBuckets; b++ {
			s.Counts[b] += sh.counts[b].Load()
		}
		if sum := sh.sum.Load(); sum < 0 || s.Sum > math.MaxInt64-sum {
			s.Sum = math.MaxInt64
		} else {
			s.Sum += sum
		}
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.Snapshot().Count }

// Quantile estimates the q-quantile (0 <= q <= 1) in recorded units by
// linear interpolation inside the target log2 bucket. With power-of-two
// bounds the estimate is within a factor of two of the true value, which
// is what bucketed latency monitoring can promise.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketUpper(i-1) + 1
			}
			hi := bucketUpper(i)
			if math.IsInf(hi, 1) {
				return lo
			}
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return bucketUpper(histBuckets - 1)
}
