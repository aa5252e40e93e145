package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramCountsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h", "", 1)
	vals := []int64{0, 1, 2, 3, 100, 1000, -5, 1 << 40}
	var wantSum int64
	for _, v := range vals {
		h.Record(v)
		if v > 0 {
			wantSum += v
		}
	}
	s := h.Snapshot()
	if s.Count != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	// 0 and the clamped -5 land in bucket 0; 1 in bucket 1; 2,3 in bucket 2.
	if s.Counts[0] != 2 || s.Counts[1] != 1 || s.Counts[2] != 2 {
		t.Fatalf("low buckets = %v", s.Counts[:3])
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_q", "", 1)
	// 1000 observations uniform on [0, 8191]: the median estimate must
	// land within its log2 bucket's factor-of-two guarantee.
	for i := int64(0); i < 1000; i++ {
		h.Record(i * 8191 / 999)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 < 2048 || p50 > 8191 {
		t.Fatalf("p50 = %g, want within a factor of two of 4096", p50)
	}
	p100 := s.Quantile(1)
	if p100 < 4096 || p100 > 8191 {
		t.Fatalf("p100 = %g, want in top bucket", p100)
	}
	if got := s.Quantile(0); got < 0 {
		t.Fatalf("p0 = %g", got)
	}
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}

func TestBucketBounds(t *testing.T) {
	if bucketIndex(0) != 0 || bucketIndex(1) != 1 || bucketIndex(1023) != 10 || bucketIndex(1024) != 11 {
		t.Fatal("bucketIndex boundaries off")
	}
	if bucketUpper(10) != 1023 {
		t.Fatalf("bucketUpper(10) = %g", bucketUpper(10))
	}
	if !math.IsInf(bucketUpper(64), 1) {
		t.Fatal("bucketUpper(64) not +Inf")
	}
}

// TestHistogramSumSaturates: a sum past MaxInt64, on one shard or over
// several, is exposed as MaxInt64 × scale instead of wrapping negative,
// and the count is intact.
func TestHistogramSumSaturates(t *testing.T) {
	r := NewRegistry()
	one := r.Histogram("test_one_seconds", "", 1e-9)
	one.Record(math.MaxInt64)
	one.Record(1)
	spread := r.Histogram("test_spread_seconds", "", 1e-9)
	for k := 0; k < 4; k++ {
		spread.shards[k].record(1 << 62) // each shard's sum fits, their total does not
	}
	for _, h := range []*Histogram{one, spread} {
		if s := h.Snapshot(); s.Sum != math.MaxInt64 {
			t.Errorf("snapshot sum = %d, want MaxInt64", s.Sum)
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sum := formatValue(float64(math.MaxInt64) * 1e-9)
	for _, want := range []string{
		"test_one_seconds_sum " + sum, "test_one_seconds_count 2",
		"test_spread_seconds_sum " + sum, "test_spread_seconds_count 4",
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

// TestHistogramRecordZeroAllocs pins the hot-path contract: recording
// into a histogram performs no heap allocations, so instrumentation may
// sit inside inference and search loops.
func TestHistogramRecordZeroAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hot_seconds", "", 1e-9)
	h.Record(1) // warm the shard pool
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(12345) }); allocs != 0 {
		t.Fatalf("Histogram.Record allocates %.1f/op, want 0", allocs)
	}
	start := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() { h.Since(start) }); allocs != 0 {
		t.Fatalf("Histogram.Since allocates %.1f/op, want 0", allocs)
	}
}

// TestHistogramConcurrentRecord checks shard aggregation: N goroutines
// recording concurrently lose nothing.
func TestHistogramConcurrentRecord(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc", "", 1)
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d (lost records under concurrency)", got, goroutines*perG)
	}
}
