package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSaveToBadPath: a store whose directory cannot be created (its
// parent is a regular file) fails to build.
func TestSaveToBadPath(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StreamBuild(buildCfg(2, 30), StreamConfig{Dir: filepath.Join(file, "store"), ShardSize: 1}); err == nil {
		t.Error("building into an uncreatable directory must fail")
	}
}

// TestLoadRejectsGarbage: a garbage manifest does not open, and a garbage
// shard behind a valid manifest fails the stream.
func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Error("garbage manifest accepted")
	}
	man := &Manifest{Magic: ManifestMagic, Version: ManifestVersion, N: 1, ShardSize: 1,
		Shards: []ShardMeta{{Name: shardName(0), Count: 1}}}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardName(0)), []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Iter(func(int, *Trace) error { return nil }); err == nil {
		t.Error("garbage shard streamed without an error")
	}
}

// TestIterRefusesMalformedEdge: the corpus reader refuses an edge that
// is not exactly two operator indices and names it; the check is
// stream.Edge's, the one the serve routes reach too.
func TestIterRefusesMalformedEdge(t *testing.T) {
	c, err := Build(buildCfg(1, 32))
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(c.Traces[0])
	if err != nil {
		t.Fatal(err)
	}
	e := c.Traces[0].Query.Edges[0]
	edge := fmt.Sprintf("[%d,%d]", e[0], e[1])
	bad := fmt.Sprintf("[%d,%d,99]", e[0], e[1])
	line = bytes.Replace(line, []byte(`"Edges":[`+edge), []byte(`"Edges":[`+bad), 1)
	dir := t.TempDir()
	man := &Manifest{Magic: ManifestMagic, Version: ManifestVersion, N: 1, ShardSize: 1,
		Shards: []ShardMeta{{Name: shardName(0), Count: 1}}}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	var shard bytes.Buffer
	zw := gzip.NewWriter(&shard)
	zw.Write(line)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardName(0)), shard.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = st.Iter(func(int, *Trace) error { return nil })
	if want := "edge " + bad + " is not [from, to]"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a trace with edge %s streamed with err = %v, want an error naming %q", bad, err, want)
	}
}

func TestBalancedSingleClass(t *testing.T) {
	c, err := Build(buildCfg(20, 31))
	if err != nil {
		t.Fatal(err)
	}
	// A label that is constant over the corpus yields an empty balanced
	// subset (no pairs to form).
	b := c.Balanced(func(tr *Trace) bool { return true }, 1)
	if b.Len() != 0 {
		t.Errorf("single-class balanced subset has %d traces, want 0", b.Len())
	}
}

func TestSplitDegenerateFractions(t *testing.T) {
	c, err := Build(buildCfg(10, 33))
	if err != nil {
		t.Fatal(err)
	}
	train, val, test := c.Split(1.0, 0, 1)
	if train.Len() != 10 || val.Len() != 0 || test.Len() != 0 {
		t.Errorf("all-train split got %d/%d/%d", train.Len(), val.Len(), test.Len())
	}
	train, val, test = c.Split(0, 0, 1)
	if train.Len() != 0 || val.Len() != 0 || test.Len() != 10 {
		t.Errorf("all-test split got %d/%d/%d", train.Len(), val.Len(), test.Len())
	}
}

func TestSplitSeedChangesAssignment(t *testing.T) {
	c, err := Build(buildCfg(40, 34))
	if err != nil {
		t.Fatal(err)
	}
	t1, _, _ := c.Split(0.5, 0.25, 1)
	t2, _, _ := c.Split(0.5, 0.25, 2)
	same := true
	for i := range t1.Traces {
		if t1.Traces[i] != t2.Traces[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different split seeds produced identical train sets")
	}
}
