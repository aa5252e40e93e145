package dataset

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"costream/internal/sim"
)

// freshStore builds a small sharded store and returns it with the fresh
// in-memory corpus it must match.
func freshStore(t *testing.T, dir string) (*Store, *Corpus) {
	t.Helper()
	cfg := buildCfg(12, 29)
	want, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := StreamBuild(cfg, StreamConfig{Dir: dir, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return st, want
}

// corruptResumeCase truncates or mangles one shard file, resumes the
// build, and asserts the shard was detected, logged and rebuilt so the
// store again matches the fresh corpus byte-for-trace.
func corruptResumeCase(t *testing.T, corrupt func(t *testing.T, path string)) {
	t.Helper()
	dir := t.TempDir()
	st, want := freshStore(t, dir)
	victim := st.Manifest.Shards[len(st.Manifest.Shards)-1]
	corrupt(t, filepath.Join(dir, victim.Name))

	// The corrupt shard must fail verification before resume trusts it.
	if err := verifyShard(dir, victim); err == nil {
		t.Fatal("corrupt shard passed verification")
	}

	var logs []string
	cfg := buildCfg(12, 29)
	st2, err := StreamBuild(cfg, StreamConfig{
		Dir: dir, ShardSize: 4, Resume: true,
		Progress: func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	logged := false
	for _, l := range logs {
		if strings.Contains(l, victim.Name) && strings.Contains(l, "rebuilding") {
			logged = true
		}
	}
	if !logged {
		t.Errorf("resume did not log the rebuild of %s; logs: %q", victim.Name, logs)
	}
	n := 0
	err = st2.Iter(func(i int, tr *Trace) error {
		equalTraces(t, i, want.Traces[i], tr)
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != cfg.N {
		t.Fatalf("rebuilt store holds %d traces, want %d", n, cfg.N)
	}
}

// TestResumeRebuildsTruncatedShard simulates a build killed mid-shard
// write (or a torn rename): the trailing shard file is cut short, so its
// gzip stream ends prematurely.
func TestResumeRebuildsTruncatedShard(t *testing.T) {
	corruptResumeCase(t, func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestResumeRebuildsCorruptShard simulates byte rot: flipped bytes in
// the middle of the gzip stream.
func TestResumeRebuildsCorruptShard(t *testing.T) {
	corruptResumeCase(t, func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
			data[i] ^= 0xA5
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestResumeRebuildsEmptyShard: a zero-byte file left by a crash before
// any bytes were flushed.
func TestResumeRebuildsEmptyShard(t *testing.T) {
	corruptResumeCase(t, func(t *testing.T, path string) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestManifestValidateNamesFields drives ParseManifest with structurally
// broken manifests and requires every error to name the offending field.
func TestManifestValidateNamesFields(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			Magic: ManifestMagic, Version: ManifestVersion, N: 10, ShardSize: 5,
			Shards: []ShardMeta{
				{Name: "shard-00000.jsonl.gz", Index: 0, Start: 0, Count: 5},
				{Name: "shard-00001.jsonl.gz", Index: 1, Start: 5, Count: 5},
			},
		}
	}
	cases := []struct {
		name string
		mut  func(*Manifest)
		want string
	}{
		{"bad magic", func(m *Manifest) { m.Magic = "nope" }, "magic"},
		{"bad version", func(m *Manifest) { m.Version = 99 }, "version"},
		{"negative n", func(m *Manifest) { m.N = -1 }, "n"},
		{"negative shard size", func(m *Manifest) { m.ShardSize = -4 }, "shard_size"},
		{"empty shard name", func(m *Manifest) { m.Shards[1].Name = "" }, "shards[1].name"},
		{"path traversal", func(m *Manifest) { m.Shards[0].Name = "../../etc/passwd" }, "shards[0].name"},
		{"path separator", func(m *Manifest) { m.Shards[0].Name = "sub/shard.gz" }, "shards[0].name"},
		{"duplicate name", func(m *Manifest) { m.Shards[1].Name = m.Shards[0].Name }, "shards[1].name"},
		{"negative index", func(m *Manifest) { m.Shards[0].Index = -1 }, "shards[0].index"},
		{"duplicate index", func(m *Manifest) { m.Shards[1].Index = 0 }, "shards[1].index"},
		{"negative start", func(m *Manifest) { m.Shards[0].Start = -2 }, "shards[0].start"},
		{"negative count", func(m *Manifest) { m.Shards[1].Count = -5 }, "shards[1].count"},
		{"overflowing shard", func(m *Manifest) { m.Shards[1].Count = 100 }, "shards[1].start"},
		{"zero shard size", func(m *Manifest) { m.ShardSize, m.Shards = 0, nil }, "shard_size"},
		{"off-grid start", func(m *Manifest) { m.Shards[1].Start = 4 }, "shards[1].start"},
		{"short shard", func(m *Manifest) { m.Shards[0].Count = 4 }, "shards[0].count"},
		{"short final shard", func(m *Manifest) { m.N, m.Shards[1].Count = 8, 2 }, "shards[1].count"},
		{"empty shard past the grid", func(m *Manifest) { m.Shards[1].Index, m.Shards[1].Start, m.Shards[1].Count = 2, 10, 0 }, "shards[1].index"},
	}
	for _, tc := range cases {
		m := base()
		tc.mut(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		_, perr := ParseManifest(data)
		if perr == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(perr.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, perr, tc.want)
		}
	}
	if _, err := ParseManifest([]byte(`{"magic": 7}`)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("type error does not name the field: %v", err)
	}
	partial := base()
	partial.N, partial.Shards[1].Count = 8, 3
	for _, m := range []*Manifest{base(), partial} {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseManifest(data); err != nil {
			t.Errorf("valid manifest rejected: %v", err)
		}
	}
}

// TestSaveAtomic locks in crash-safe store writes: writeShard and
// writeManifest leave no temp debris, and a write that fails midway
// leaves the file it would have replaced intact.
func TestSaveAtomic(t *testing.T) {
	c, err := Build(buildCfg(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	meta, err := writeShard(dir, 0, 0, c.Traces)
	if err != nil {
		t.Fatal(err)
	}
	man := &Manifest{Magic: ManifestMagic, Version: ManifestVersion, N: 5, ShardSize: 5, Shards: []ShardMeta{meta}}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	before := snapshot()
	if len(before) != 2 {
		t.Fatalf("store writes left %d files, want 2 (no temp debris)", len(before))
	}

	// NaN is not JSON: each encoder fails after it has started writing.
	nan := &Trace{Metrics: &sim.Metrics{ThroughputTPS: math.NaN()}}
	if _, err := writeShard(dir, 0, 0, append(append([]*Trace{}, c.Traces...), nan)); err == nil {
		t.Fatal("shard write of an unencodable trace succeeded")
	}
	bad := *man
	bad.Shards = []ShardMeta{meta}
	bad.Shards[0].Stats.MedianT = math.NaN()
	if err := writeManifest(dir, &bad); err == nil {
		t.Fatal("manifest write with an unencodable stat succeeded")
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("failed writes left %d files, want %d (no temp debris)", len(after), len(before))
	}
	for name, data := range before {
		if after[name] != data {
			t.Fatalf("failed write corrupted the existing %s", name)
		}
	}
}

// FuzzParseManifest: arbitrary bytes never panic the manifest parser,
// and accepted manifests re-validate.
func FuzzParseManifest(f *testing.F) {
	good, err := json.Marshal(&Manifest{
		Magic: ManifestMagic, Version: ManifestVersion, N: 10, ShardSize: 5,
		Shards: []ShardMeta{{Name: "shard-00000.jsonl.gz", Count: 5}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic": "costream-corpus", "version": 1, "shards": [{"name": "../x"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte("\x00\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("rejection with empty error message")
			}
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted manifest fails re-validation: %v", verr)
		}
	})
}
