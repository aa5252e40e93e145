package gnn

import "testing"

func newTestEnsemble(t *testing.T, k int) []*Model {
	t.Helper()
	cfg := DefaultConfig(testDims())
	cfg.Hidden = 8
	cfg.EncHidden, cfg.UpdHidden, cfg.OutHidden = 8, 8, 8
	models := make([]*Model, k)
	for m := range models {
		mod, err := New(cfg, int64(100+m))
		if err != nil {
			t.Fatal(err)
		}
		models[m] = mod
	}
	return models
}

// TestStackRejectsMismatches checks architecture and mode validation.
func TestStackRejectsMismatches(t *testing.T) {
	if _, err := Stack(nil); err == nil {
		t.Fatal("stacking zero models should fail")
	}

	base := newTestEnsemble(t, 1)[0]

	cfgWide := DefaultConfig(testDims())
	cfgWide.Hidden = 16
	cfgWide.EncHidden, cfgWide.UpdHidden, cfgWide.OutHidden = 8, 8, 8
	wide, err := New(cfgWide, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stack([]*Model{base, wide}); err == nil {
		t.Fatal("stacking mismatched hidden sizes should fail")
	}

	cfgTrad := DefaultConfig(testDims())
	cfgTrad.Hidden = 8
	cfgTrad.EncHidden, cfgTrad.UpdHidden, cfgTrad.OutHidden = 8, 8, 8
	cfgTrad.Traditional = true
	trad, err := New(cfgTrad, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stack([]*Model{trad}); err == nil {
		t.Fatal("stacking traditional models should fail")
	}
}
