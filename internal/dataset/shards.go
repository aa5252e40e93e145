// Sharded corpus store, the one on-disk corpus layout: a directory of
// gzip-compressed JSONL shard files plus a JSON manifest. Shard k holds
// the traces [k*ShardSize, min((k+1)*ShardSize, N)).
//
//   - StreamBuild runs Build's worker pool over one shard at a time and
//     writes each shard as soon as it is complete, so a crashed or
//     interrupted generation run resumes by rebuilding only the missing
//     shards (the per-trace seed derivation is Build's, so a store of N
//     traces equals Build(N) trace-for-trace no matter how it was
//     resumed or appended to).
//   - Store.Iter streams traces one at a time straight off the gzip
//     readers — O(1) traces of memory regardless of corpus size.
package dataset

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ManifestMagic identifies a COSTREAM corpus manifest.
const ManifestMagic = "costream-corpus"

// ManifestVersion is the current manifest format version. Readers reject
// other versions rather than guessing at layouts.
const ManifestVersion = 1

// ManifestName is the manifest's file name inside a store directory.
const ManifestName = "manifest.json"

// ShardMeta describes one completed shard.
type ShardMeta struct {
	// Name is the shard's file name within the store directory.
	Name string `json:"name"`
	// Index is the shard's position: shard k holds the traces
	// [k*ShardSize, min((k+1)*ShardSize, N)).
	Index int `json:"index"`
	// Start is the global index of the shard's first trace.
	Start int `json:"start"`
	// Count is the number of traces in the shard.
	Count int `json:"count"`
	// Stats summarizes the shard's label distribution.
	Stats Stats `json:"stats"`
}

// Manifest is the store's metadata document. It is rewritten atomically
// after every completed shard, so it always describes exactly the shards
// that exist on disk.
type Manifest struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// Seed is the corpus generation seed (BuildConfig.Seed).
	Seed int64 `json:"seed"`
	// Scenario names the corpus recipe (see internal/scenario); empty for
	// ad-hoc builds.
	Scenario string `json:"scenario,omitempty"`
	// SimDurationS is the simulated measurement window per trace
	// (BuildConfig.Sim.DurationS) — part of the recipe, so resumed builds
	// must match it for old and new shards to agree.
	SimDurationS float64 `json:"sim_duration_s,omitempty"`
	// N is the total number of traces the corpus targets. Shards may still
	// be missing (an interrupted build); Store.Complete reports that.
	N int `json:"n"`
	// ShardSize is the number of traces per shard (the last shard may be
	// smaller).
	ShardSize int `json:"shard_size"`
	// Shards lists the completed shards, sorted by Index.
	Shards []ShardMeta `json:"shards"`
}

// NumShards returns the total shard count implied by N and ShardSize.
func (m *Manifest) NumShards() int {
	if m.N <= 0 || m.ShardSize <= 0 {
		return 0
	}
	return (m.N-1)/m.ShardSize + 1
}

// shardName returns the canonical file name of shard k.
func shardName(k int) string { return fmt.Sprintf("shard-%05d.jsonl.gz", k) }

// Store is a sharded corpus directory opened for reading or resuming.
type Store struct {
	// Dir is the store directory.
	Dir string
	// Manifest is the store's metadata as read from disk (or as last
	// written by StreamBuild).
	Manifest Manifest
}

// OpenStore opens a sharded corpus directory by reading its manifest.
func OpenStore(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: opening corpus store %s: %w", dir, err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", dir, err)
	}
	return &Store{Dir: dir, Manifest: *m}, nil
}

// ParseManifest parses and validates a manifest document. Arbitrary
// bytes never panic; every rejection names the offending field.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		var typeErr *json.UnmarshalTypeError
		if errors.As(err, &typeErr) && typeErr.Field != "" {
			return nil, fmt.Errorf("malformed manifest field %s: %w", typeErr.Field, err)
		}
		return nil, fmt.Errorf("malformed manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].Index < m.Shards[j].Index })
	return &m, nil
}

// Validate checks the manifest's structural invariants; errors name the
// offending field.
func (m *Manifest) Validate() error {
	if m.Magic != ManifestMagic {
		return fmt.Errorf("manifest field magic: %q is not a costream corpus store (want %q)", m.Magic, ManifestMagic)
	}
	if m.Version != ManifestVersion {
		return fmt.Errorf("manifest field version: %d not readable by this build (want %d)", m.Version, ManifestVersion)
	}
	if m.N < 0 {
		return fmt.Errorf("manifest field n: negative trace count %d", m.N)
	}
	if m.ShardSize < 0 {
		return fmt.Errorf("manifest field shard_size: negative %d", m.ShardSize)
	}
	if m.N > 0 && m.ShardSize == 0 {
		return fmt.Errorf("manifest field shard_size: must be positive for %d traces", m.N)
	}
	seenIdx := make(map[int]bool, len(m.Shards))
	seenName := make(map[string]bool, len(m.Shards))
	for i, sh := range m.Shards {
		field := func(f string) string { return fmt.Sprintf("manifest field shards[%d].%s", i, f) }
		if sh.Name == "" {
			return fmt.Errorf("%s: empty shard file name", field("name"))
		}
		// Shard names are joined onto the store directory: reject path
		// separators and traversal so a hostile manifest cannot read or
		// overwrite files outside the store.
		if sh.Name != filepath.Base(sh.Name) || sh.Name == ".." || sh.Name == "." {
			return fmt.Errorf("%s: %q must be a bare file name", field("name"), sh.Name)
		}
		if seenName[sh.Name] {
			return fmt.Errorf("%s: duplicate shard file %q", field("name"), sh.Name)
		}
		seenName[sh.Name] = true
		if sh.Index < 0 {
			return fmt.Errorf("%s: negative shard index %d", field("index"), sh.Index)
		}
		if seenIdx[sh.Index] {
			return fmt.Errorf("%s: duplicate shard index %d", field("index"), sh.Index)
		}
		seenIdx[sh.Index] = true
		if sh.Start < 0 {
			return fmt.Errorf("%s: negative start %d", field("start"), sh.Start)
		}
		if sh.Count < 0 {
			return fmt.Errorf("%s: negative count %d", field("count"), sh.Count)
		}
		if sh.Start > m.N || sh.Start+sh.Count > m.N {
			return fmt.Errorf("%s: traces [%d, %d) exceed the corpus size %d", field("start"), sh.Start, sh.Start+sh.Count, m.N)
		}
		// Every shard sits on the k*shard_size grid; Missing and resume
		// compute shard geometry from it.
		if sh.Index >= m.NumShards() {
			return fmt.Errorf("%s: shard %d is past the last of %d shards", field("index"), sh.Index, m.NumShards())
		}
		if start := sh.Index * m.ShardSize; sh.Start != start {
			return fmt.Errorf("%s: shard %d starts at %d, want %d", field("start"), sh.Index, sh.Start, start)
		}
		if want := min(m.ShardSize, m.N-sh.Start); sh.Count != want {
			return fmt.Errorf("%s: shard %d holds %d traces, want %d", field("count"), sh.Index, sh.Count, want)
		}
	}
	return nil
}

// Len implements Source: the number of traces the corpus targets.
func (s *Store) Len() int { return s.Manifest.N }

// Missing returns the indices of shards an interrupted StreamBuild has
// not written yet; empty means the store is complete.
func (s *Store) Missing() []int {
	have := make(map[int]bool, len(s.Manifest.Shards))
	for _, sh := range s.Manifest.Shards {
		have[sh.Index] = true
	}
	var missing []int
	for k := 0; k < s.Manifest.NumShards(); k++ {
		if !have[k] {
			missing = append(missing, k)
		}
	}
	return missing
}

// Complete reports whether every shard is present.
func (s *Store) Complete() bool { return len(s.Missing()) == 0 }

// Iter implements Source: it streams every trace in global index order,
// decoding one trace at a time off the shard's gzip stream — memory stays
// O(1) traces regardless of corpus size. It fails if a shard is missing
// (resume the build first) or a shard holds a different trace count than
// its manifest entry claims.
func (s *Store) Iter(fn func(i int, tr *Trace) error) error {
	if missing := s.Missing(); len(missing) > 0 {
		return fmt.Errorf("dataset: corpus store %s is incomplete (%d of %d shards missing; resume the build)",
			s.Dir, len(missing), s.Manifest.NumShards())
	}
	for _, sh := range s.Manifest.Shards {
		if err := s.iterShard(sh, fn); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) iterShard(sh ShardMeta, fn func(i int, tr *Trace) error) error {
	path := filepath.Join(s.Dir, sh.Name)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: opening shard: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(bufio.NewReader(f))
	if err != nil {
		return fmt.Errorf("dataset: shard %s is not gzip data: %w", path, err)
	}
	defer zr.Close()
	dec := json.NewDecoder(zr)
	for n := 0; ; n++ {
		tr := &Trace{}
		if err := dec.Decode(tr); err == io.EOF {
			if n != sh.Count {
				return fmt.Errorf("dataset: shard %s holds %d traces, manifest says %d", path, n, sh.Count)
			}
			return nil
		} else if err != nil {
			return fmt.Errorf("dataset: decoding shard %s trace %d: %w", path, n, err)
		}
		if n >= sh.Count {
			return fmt.Errorf("dataset: shard %s holds more traces than the manifest's %d", path, sh.Count)
		}
		if err := fn(sh.Start+n, tr); err != nil {
			return err
		}
	}
}

// Load materializes the whole store into an in-memory Corpus. Prefer Iter
// for large corpora.
func (s *Store) Load() (*Corpus, error) {
	c := &Corpus{Traces: make([]*Trace, 0, s.Len())}
	err := s.Iter(func(i int, tr *Trace) error {
		c.Traces = append(c.Traces, tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Summarize aggregates the per-shard label stats recorded in the manifest
// without touching the shard files. Medians are trace-count-weighted means
// of the shard medians (exact medians would need the full value streams).
func (s *Store) Summarize() Stats {
	var out Stats
	var succ float64
	for _, sh := range s.Manifest.Shards {
		n := float64(sh.Count)
		out.N += sh.Count
		out.SuccessRate += sh.Stats.SuccessRate * n
		out.BackpressRate += sh.Stats.BackpressRate * n
		out.CrashRate += sh.Stats.CrashRate * n
		sn := sh.Stats.SuccessRate * n
		succ += sn
		out.MedianT += sh.Stats.MedianT * sn
		out.MedianLpMS += sh.Stats.MedianLpMS * sn
		out.MedianLeMS += sh.Stats.MedianLeMS * sn
	}
	if out.N > 0 {
		n := float64(out.N)
		out.SuccessRate /= n
		out.BackpressRate /= n
		out.CrashRate /= n
	}
	if succ > 0 {
		out.MedianT /= succ
		out.MedianLpMS /= succ
		out.MedianLeMS /= succ
	}
	return out
}

// StreamConfig parameterizes StreamBuild on top of a BuildConfig.
type StreamConfig struct {
	// Dir is the store directory; created if absent.
	Dir string
	// ShardSize is the number of traces per shard. For a fresh build it
	// must be positive; when resuming it defaults to (and must match) the
	// existing manifest's.
	ShardSize int
	// Scenario names the corpus recipe, recorded in the manifest.
	Scenario string
	// Resume keeps shards already listed in the manifest and builds only
	// the missing ones. Growing BuildConfig.N over the manifest's appends
	// new shards; the seed and shard size must match the manifest.
	Resume bool
	// Progress, when set, receives a line per completed shard.
	Progress func(format string, args ...any)
}

// StreamBuild generates a sharded corpus one shard at a time: each
// missing shard's traces are built with Build's worker pool (GOMAXPROCS
// workers), then the shard is written —
// atomically, temp file + rename — followed by a manifest update. The
// resulting corpus is trace-for-trace identical to Build(cfg) with the
// same BuildConfig, and a resumed or appended build is indistinguishable
// from a fresh one.
func StreamBuild(cfg BuildConfig, sc StreamConfig) (*Store, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dataset: N must be positive")
	}
	if sc.Dir == "" {
		return nil, fmt.Errorf("dataset: StreamConfig.Dir must be set")
	}
	if err := os.MkdirAll(sc.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: creating store %s: %w", sc.Dir, err)
	}
	logf := sc.Progress
	if logf == nil {
		logf = func(string, ...any) {}
	}

	man := Manifest{
		Magic:        ManifestMagic,
		Version:      ManifestVersion,
		Seed:         cfg.Seed,
		Scenario:     sc.Scenario,
		SimDurationS: cfg.Sim.DurationS,
		N:            cfg.N,
		ShardSize:    sc.ShardSize,
	}
	if sc.Resume {
		if prev, err := OpenStore(sc.Dir); err == nil {
			if prev.Manifest.Seed != cfg.Seed {
				return nil, fmt.Errorf("dataset: resume seed mismatch: store %s was built with seed %d, got %d",
					sc.Dir, prev.Manifest.Seed, cfg.Seed)
			}
			if prev.Manifest.SimDurationS != 0 && prev.Manifest.SimDurationS != cfg.Sim.DurationS {
				return nil, fmt.Errorf("dataset: resume sim-duration mismatch: store %s was built with %gs windows, got %gs",
					sc.Dir, prev.Manifest.SimDurationS, cfg.Sim.DurationS)
			}
			if sc.ShardSize != 0 && sc.ShardSize != prev.Manifest.ShardSize {
				return nil, fmt.Errorf("dataset: resume shard-size mismatch: store %s uses %d, got %d",
					sc.Dir, prev.Manifest.ShardSize, sc.ShardSize)
			}
			if sc.Scenario != "" && prev.Manifest.Scenario != "" && sc.Scenario != prev.Manifest.Scenario {
				return nil, fmt.Errorf("dataset: resume scenario mismatch: store %s holds %q, got %q",
					sc.Dir, prev.Manifest.Scenario, sc.Scenario)
			}
			man.ShardSize = prev.Manifest.ShardSize
			if man.Scenario == "" {
				man.Scenario = prev.Manifest.Scenario
			}
			if cfg.N < prev.Manifest.N {
				return nil, fmt.Errorf("dataset: resume cannot shrink the corpus: store %s targets %d traces, got %d",
					sc.Dir, prev.Manifest.N, cfg.N)
			}
			// Keep only shards whose trace count matches what their index
			// requires under the (possibly grown) corpus and whose files
			// still decode to that count — anything else (a
			// previously-final partial shard that appending made interior,
			// or a shard torn by a crash or disk fault mid-write) is
			// rebuilt instead of poisoning later reads.
			for _, sh := range prev.Manifest.Shards {
				if sh.Count != min(man.ShardSize, man.N-sh.Start) {
					continue
				}
				if err := verifyShard(sc.Dir, sh); err != nil {
					logf("shard %s failed verification (%v); rebuilding it", sh.Name, err)
					continue
				}
				man.Shards = append(man.Shards, sh)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	if man.ShardSize <= 0 {
		return nil, fmt.Errorf("dataset: StreamConfig.ShardSize must be positive for a fresh build")
	}

	st := &Store{Dir: sc.Dir, Manifest: man}
	missing := st.Missing()
	if len(missing) == 0 {
		logf("store %s already complete (%d traces in %d shards)", sc.Dir, man.N, man.NumShards())
		return st, writeManifest(sc.Dir, &st.Manifest)
	}
	logf("building %d of %d shards (%d traces, shard size %d)", len(missing), man.NumShards(), man.N, man.ShardSize)

	for _, k := range missing {
		start := k * man.ShardSize
		traces, err := buildRange(cfg, start, min(start+man.ShardSize, man.N))
		if err != nil {
			return nil, err
		}
		meta, err := writeShard(sc.Dir, k, start, traces)
		if err != nil {
			return nil, err
		}
		st.Manifest.Shards = append(st.Manifest.Shards, meta)
		sort.Slice(st.Manifest.Shards, func(a, b int) bool {
			return st.Manifest.Shards[a].Index < st.Manifest.Shards[b].Index
		})
		if err := writeManifest(sc.Dir, &st.Manifest); err != nil {
			return nil, err
		}
		logf("shard %s done (%d/%d shards, %d traces)", meta.Name, len(st.Manifest.Shards), st.Manifest.NumShards(), meta.Count)
	}
	return st, nil
}

// verifyShard checks that a shard's on-disk bytes are a complete gzip
// stream holding exactly the manifest's trace count. Lines decode as
// raw JSON values (no Trace unmarshal), so verification costs little
// more than a gunzip; it catches truncation (a build killed mid-write,
// a torn rename) and byte corruption, both of which gzip's framing and
// CRC surface as decode errors.
func verifyShard(dir string, sh ShardMeta) error {
	f, err := os.Open(filepath.Join(dir, sh.Name))
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(bufio.NewReader(f))
	if err != nil {
		return fmt.Errorf("not gzip data: %w", err)
	}
	defer zr.Close()
	dec := json.NewDecoder(zr)
	n := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("trace %d does not decode: %w", n, err)
		}
		n++
	}
	if n != sh.Count {
		return fmt.Errorf("holds %d traces, manifest says %d", n, sh.Count)
	}
	return nil
}

// writeShard persists one shard as gzip JSONL (one trace per line),
// atomically, and returns its manifest entry.
func writeShard(dir string, index, start int, traces []*Trace) (ShardMeta, error) {
	meta := ShardMeta{
		Name:  shardName(index),
		Index: index,
		Start: start,
		Count: len(traces),
		Stats: (&Corpus{Traces: traces}).Summarize(),
	}
	path := filepath.Join(dir, meta.Name)
	err := atomicWrite(path, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		enc := json.NewEncoder(zw)
		for _, tr := range traces {
			if err := enc.Encode(tr); err != nil {
				return fmt.Errorf("dataset: encoding shard %s: %w", path, err)
			}
		}
		if err := zw.Close(); err != nil {
			return fmt.Errorf("dataset: encoding shard %s: %w", path, err)
		}
		return nil
	})
	if err != nil {
		return ShardMeta{}, err
	}
	return meta, nil
}

// writeManifest persists the manifest atomically.
func writeManifest(dir string, m *Manifest) error {
	return atomicWrite(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			return fmt.Errorf("dataset: encoding manifest: %w", err)
		}
		return nil
	})
}

// atomicWrite writes a file via temp-file-plus-rename so a crash mid-write
// never leaves a truncated file at path (the artifact.Save pattern).
func atomicWrite(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".costream-corpus-*")
	if err != nil {
		return fmt.Errorf("dataset: creating %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp opens 0600; corpora are shareable data files, so widen to
	// the conventional 0644 before publishing.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	return nil
}
