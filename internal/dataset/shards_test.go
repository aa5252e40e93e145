package dataset

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// equalTraces asserts two traces carry the same query shape, placement and
// measured metrics (the fields that define corpus identity).
func equalTraces(t *testing.T, i int, a, b *Trace) {
	t.Helper()
	if len(a.Query.Ops) != len(b.Query.Ops) {
		t.Fatalf("trace %d: op count %d vs %d", i, len(a.Query.Ops), len(b.Query.Ops))
	}
	if len(a.Placement) != len(b.Placement) {
		t.Fatalf("trace %d: placement length differs", i)
	}
	for j := range a.Placement {
		if a.Placement[j] != b.Placement[j] {
			t.Fatalf("trace %d: placement[%d] = %d vs %d", i, j, a.Placement[j], b.Placement[j])
		}
	}
	am, bm := a.Metrics, b.Metrics
	if am.ThroughputTPS != bm.ThroughputTPS || am.ProcLatencyMS != bm.ProcLatencyMS ||
		am.E2ELatencyMS != bm.E2ELatencyMS || am.Success != bm.Success ||
		am.Backpressured != bm.Backpressured || am.Crashed != bm.Crashed {
		t.Fatalf("trace %d: metrics differ: %+v vs %+v", i, am, bm)
	}
}

func TestStreamBuildMatchesBuild(t *testing.T) {
	cfg := buildCfg(23, 11)
	want, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := StreamBuild(cfg, StreamConfig{Dir: dir, ShardSize: 5, Scenario: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete() {
		t.Fatal("fresh StreamBuild left missing shards")
	}
	if st.Manifest.NumShards() != 5 {
		t.Fatalf("NumShards = %d, want 5", st.Manifest.NumShards())
	}
	got := 0
	err = st.Iter(func(i int, tr *Trace) error {
		if i != got {
			t.Fatalf("Iter index %d, want %d (global order broken)", i, got)
		}
		equalTraces(t, i, want.Traces[i], tr)
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg.N {
		t.Fatalf("Iter visited %d traces, want %d", got, cfg.N)
	}
	// Reopening reads the same manifest.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != cfg.N || st2.Manifest.Seed != cfg.Seed || st2.Manifest.Scenario != "test" {
		t.Fatalf("reopened manifest differs: %+v", st2.Manifest)
	}
	// Per-shard metadata adds up.
	total := 0
	for k, sh := range st2.Manifest.Shards {
		if sh.Index != k || sh.Start != total {
			t.Fatalf("shard %d: index/start %d/%d, want %d/%d", k, sh.Index, sh.Start, k, total)
		}
		if sh.Stats.N != sh.Count {
			t.Fatalf("shard %d: stats over %d traces, want %d", k, sh.Stats.N, sh.Count)
		}
		total += sh.Count
	}
	if total != cfg.N {
		t.Fatalf("shard counts sum to %d, want %d", total, cfg.N)
	}
}

func TestStreamBuildResumeRebuildsOnlyMissing(t *testing.T) {
	cfg := buildCfg(18, 13)
	dir := t.TempDir()
	st, err := StreamBuild(cfg, StreamConfig{Dir: dir, ShardSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that lost the last shard: delete its file and its
	// manifest entry.
	lost := st.Manifest.Shards[len(st.Manifest.Shards)-1]
	if err := os.Remove(filepath.Join(dir, lost.Name)); err != nil {
		t.Fatal(err)
	}
	st.Manifest.Shards = st.Manifest.Shards[:len(st.Manifest.Shards)-1]
	if err := writeManifest(dir, &st.Manifest); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Missing(); len(got) != 1 || got[0] != lost.Index {
		t.Fatalf("Missing = %v, want [%d]", got, lost.Index)
	}
	if _, err := re.Load(); err == nil {
		t.Fatal("loading an incomplete store must fail")
	}

	// Resume: untouched shard files must not be rewritten (same mtime),
	// the lost one must reappear with identical content.
	kept := filepath.Join(dir, st.Manifest.Shards[0].Name)
	before, err := os.Stat(kept)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := StreamBuild(cfg, StreamConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(kept)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("resume rewrote a shard that was already present")
	}
	got, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Traces {
		equalTraces(t, i, want.Traces[i], got.Traces[i])
	}
}

func TestStreamBuildResumeMismatchRejected(t *testing.T) {
	cfg := buildCfg(8, 3)
	dir := t.TempDir()
	if _, err := StreamBuild(cfg, StreamConfig{Dir: dir, ShardSize: 4, Scenario: "a"}); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 99
	if _, err := StreamBuild(bad, StreamConfig{Dir: dir, Resume: true}); err == nil {
		t.Error("resume with a different seed accepted")
	}
	if _, err := StreamBuild(cfg, StreamConfig{Dir: dir, ShardSize: 3, Resume: true}); err == nil {
		t.Error("resume with a different shard size accepted")
	}
	if _, err := StreamBuild(cfg, StreamConfig{Dir: dir, Scenario: "b", Resume: true}); err == nil {
		t.Error("resume with a different scenario accepted")
	}
	smaller := cfg
	smaller.N = 4
	if _, err := StreamBuild(smaller, StreamConfig{Dir: dir, Resume: true}); err == nil {
		t.Error("resume that shrinks the corpus accepted")
	}
}

func TestStreamBuildAppendEqualsFreshBuild(t *testing.T) {
	cfg := buildCfg(10, 17)
	dir := t.TempDir()
	if _, err := StreamBuild(cfg, StreamConfig{Dir: dir, ShardSize: 4}); err != nil {
		t.Fatal(err)
	}
	// Append 7 traces: the old final partial shard (2 traces) must be
	// rebuilt to a full one, and the corpus must equal a fresh 17-trace
	// build trace-for-trace.
	grown := cfg
	grown.N = 17
	st, err := StreamBuild(grown, StreamConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(grown)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 17 {
		t.Fatalf("appended store holds %d traces, want 17", got.Len())
	}
	for i := range want.Traces {
		equalTraces(t, i, want.Traces[i], got.Traces[i])
	}
}

// TestOpenStoreRejectsZeroShardSize: a manifest that targets traces but
// has no shard size describes no shards at all. Opening it must fail,
// not read as a complete store that streams nothing.
func TestOpenStoreRejectsZeroShardSize(t *testing.T) {
	dir := t.TempDir()
	man := `{"magic": "costream-corpus", "version": 1, "n": 10, "shard_size": 0, "shards": []}`
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err == nil {
		t.Fatalf("zero-shard-size store opened: Complete=%t Len=%d", st.Complete(), st.Len())
	}
	if !strings.Contains(err.Error(), "shard_size") {
		t.Errorf("error %q does not name shard_size", err)
	}
}

func TestStoreSummarizeAggregatesShards(t *testing.T) {
	cfg := buildCfg(20, 41)
	dir := t.TempDir()
	st, err := StreamBuild(cfg, StreamConfig{Dir: dir, ShardSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	want, got := c.Summarize(), st.Summarize()
	if got.N != want.N {
		t.Fatalf("Summarize N = %d, want %d", got.N, want.N)
	}
	// Rates aggregate exactly (weighted means of exact shard rates).
	if diff := got.SuccessRate - want.SuccessRate; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("SuccessRate %v, want %v", got.SuccessRate, want.SuccessRate)
	}
	if diff := got.CrashRate - want.CrashRate; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("CrashRate %v, want %v", got.CrashRate, want.CrashRate)
	}
}

// TestIterBoundedMemory is the shard store's core promise: streaming a
// corpus retains O(one trace), not O(corpus). It builds a store, measures
// retained heap while holding the fully-materialized corpus, then measures
// retained heap growth during a streaming pass and requires it to be far
// below the materialized footprint.
func TestIterBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-profiled iteration is slow")
	}
	cfg := buildCfg(300, 51)
	dir := t.TempDir()
	st, err := StreamBuild(cfg, StreamConfig{Dir: dir, ShardSize: 25})
	if err != nil {
		t.Fatal(err)
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	base := heap()
	corpus, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	withCorpus := heap()
	materialized := int64(withCorpus) - int64(base)
	if corpus.Len() != 300 {
		t.Fatal("bad corpus")
	}
	corpus = nil
	_ = corpus

	base = heap()
	var peak int64
	n := 0
	err = st.Iter(func(i int, tr *Trace) error {
		n++
		if n%100 == 0 { // sample retained heap mid-stream
			if d := int64(heap()) - int64(base); d > peak {
				peak = d
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if materialized < 256<<10 {
		t.Skipf("corpus too small to measure (%d bytes)", materialized)
	}
	if peak > materialized/4 {
		t.Errorf("streaming retained %d bytes mid-pass; materialized corpus is %d (want < 1/4)", peak, materialized)
	}
	t.Logf("materialized %d bytes, streaming peak %d bytes", materialized, peak)
}
