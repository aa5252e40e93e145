package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
