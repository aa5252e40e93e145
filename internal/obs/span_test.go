package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSpanStagesAndID(t *testing.T) {
	sp := StartSpan("predict")
	if len(sp.ID()) != 16 {
		t.Fatalf("trace ID %q, want 16 hex digits", sp.ID())
	}
	sp.Stage("decode")
	time.Sleep(2 * time.Millisecond)
	d := sp.Stage("infer")
	if d < 2*time.Millisecond {
		t.Fatalf("infer stage %v, want >= 2ms", d)
	}
	total := sp.End()
	if total < d {
		t.Fatalf("total %v < stage %v", total, d)
	}
	st := sp.stages
	if len(st) != 2 || st[0].Name != "decode" || st[1].Name != "infer" {
		t.Fatalf("stages = %+v", st)
	}
	str := sp.String()
	for _, want := range []string{"predict", "id=", "decode=", "infer=", "total="} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestSpanIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := StartSpan("x").ID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestRunLogAppendsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Epoch int     `json:"epoch"`
		Loss  float64 `json:"loss"`
	}
	if err := l.Write(rec{Epoch: 0, Loss: 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Write(rec{Epoch: 1, Loss: 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open appends rather than truncating.
	l2, err := OpenRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Write(rec{Epoch: 2, Loss: 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), data)
	}
	for i, line := range lines {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if r.Epoch != i {
			t.Fatalf("line %d epoch = %d", i, r.Epoch)
		}
	}
}
