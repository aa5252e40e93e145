package costream

import (
	"path/filepath"
	"testing"
)

// TestModelSaveLoadRoundTrip is the facade-level acceptance check: a
// model trained in-process, saved with Model.Save and reloaded with
// LoadModel must produce bit-identical PredictCosts and identical
// OptimizePlacement results.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	corpus, model := facade(t)
	path := filepath.Join(t.TempDir(), "model.costream")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	info := back.Info()
	if info.CorpusSize != corpus.Len() || info.EnsembleSize != 1 {
		t.Errorf("provenance %+v does not describe the training run", info)
	}

	for i, tr := range corpus.Traces[:15] {
		want, err := model.PredictCosts(tr.Query, tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.PredictCosts(tr.Query, tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("trace %d: reloaded PredictCosts %+v != original %+v", i, got, want)
		}
	}

	q := exampleQuery(t)
	c := exampleCluster()
	wantP, wantCosts, err := model.OptimizePlacement(q, c, 12, MinProcLatency, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotP, gotCosts, err := back.OptimizePlacement(q, c, 12, MinProcLatency, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantP) != len(gotP) {
		t.Fatalf("placement lengths differ: %v vs %v", wantP, gotP)
	}
	for i := range wantP {
		if wantP[i] != gotP[i] {
			t.Fatalf("reloaded OptimizePlacement chose %v, original chose %v", gotP, wantP)
		}
	}
	if wantCosts != gotCosts {
		t.Fatalf("reloaded optimize costs %+v != original %+v", gotCosts, wantCosts)
	}

	// Batch predictions agree too, and each row is the candidate's own
	// PredictCosts.
	cands := []Placement{{0, 1, 2}, {0, 0, 2}, {1, 1, 2}}
	wantB, err := model.PredictCostsBatch(q, c, cands)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := back.PredictCostsBatch(q, c, cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantB {
		if wantB[i] != gotB[i] {
			t.Fatalf("batch candidate %d: reloaded %+v != original %+v", i, gotB[i], wantB[i])
		}
		single, err := model.PredictCosts(q, c, cands[i])
		if err != nil {
			t.Fatal(err)
		}
		if wantB[i] != single {
			t.Fatalf("batch candidate %d: %+v != PredictCosts %+v", i, wantB[i], single)
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing artifact loaded")
	}
}
