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

// TestModelInfoRecordsTrainedShape checks that provenance describes the
// models that were trained, not the options as given: zero EnsembleSize
// and Hidden train three members at the GNN's default width, and Info and
// the saved artifact both say so.
func TestModelInfoRecordsTrainedShape(t *testing.T) {
	corpus, err := GenerateCorpus(30, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTrainOptions()
	opts.Epochs = 1
	opts.EnsembleSize = 0
	opts.Hidden = 0
	model, err := TrainModel(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	members, hidden := model.pred.Shape()
	if members != 3 || hidden != 48 {
		t.Fatalf("trained %d members at hidden %d, want the defaults 3 and 48", members, hidden)
	}
	path := filepath.Join(t.TempDir(), "model.costream")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, info := range map[string]ModelInfo{"Info": model.Info(), "saved artifact": back.Info()} {
		if info.EnsembleSize != members || info.Hidden != hidden {
			t.Errorf("%s: ensemble size %d, hidden %d; trained %d members at hidden %d",
				name, info.EnsembleSize, info.Hidden, members, hidden)
		}
	}
}
