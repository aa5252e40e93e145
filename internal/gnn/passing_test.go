package gnn

import (
	"encoding/json"
	"testing"

	"costream/internal/nn"
)

func TestDirectedPassingUsesAllThreePhases(t *testing.T) {
	// Zeroing the host features must still change the output relative to
	// removing the host entirely, because placement edges carry messages
	// in phases 1-2.
	m := newTestModel(t, false)
	withHosts := testGraph(0.5)
	zeroHostFeat := testGraph(0.5)
	for i := range zeroHostFeat.Nodes {
		if zeroHostFeat.Nodes[i].Kind == KindHost {
			zeroHostFeat.Nodes[i].Feat = []float64{0, 0, 0, 0}
		}
	}
	noHosts := &Graph{
		Nodes:     withHosts.Nodes[:3],
		FlowEdges: withHosts.FlowEdges,
	}
	t1, t2, t3 := nn.NewTape(), nn.NewTape(), nn.NewTape()
	o1, err := m.forward(t1, withHosts)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := m.forward(t2, zeroHostFeat)
	if err != nil {
		t.Fatal(err)
	}
	o3, err := m.forward(t3, noHosts)
	if err != nil {
		t.Fatal(err)
	}
	if o1.Data[0] == o2.Data[0] {
		t.Error("host features do not influence the prediction")
	}
	if o2.Data[0] == o3.Data[0] {
		t.Error("placement structure alone does not influence the prediction")
	}
}

func TestKindStringAndAllKinds(t *testing.T) {
	if len(AllKinds()) != int(numKinds) {
		t.Errorf("AllKinds lists %d kinds, want %d", len(AllKinds()), int(numKinds))
	}
	seen := map[string]bool{}
	for _, k := range AllKinds() {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("bad kind name %q", s)
		}
		seen[s] = true
	}
	if NodeKind(99).String() == "" {
		t.Error("out-of-range kind must format")
	}
}

// TestSerializationRejectsCorruptJSON: a config read off disk is refused
// when its JSON is malformed or names an unknown node kind, and New
// refuses widths outside 1..maxWidth, so that no parameter count derived
// from one can overflow.
func TestSerializationRejectsCorruptJSON(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{`), &cfg); err == nil {
		t.Error("truncated JSON accepted")
	}
	if err := json.Unmarshal([]byte(`{"hidden":8,"feat_dims":{"gremlin":4}}`), &cfg); err == nil {
		t.Error("unknown node kind accepted")
	}
	for _, bad := range []string{
		`{"hidden":8,"feat_dims":{},"enc_hidden":8,"upd_hidden":8,"out_hidden":8}`,
		`{"hidden":8,"feat_dims":{"source":2},"enc_hidden":0,"upd_hidden":8,"out_hidden":8}`,
		`{"hidden":8,"feat_dims":{"source":-2},"enc_hidden":8,"upd_hidden":8,"out_hidden":8}`,
		`{"hidden":65537,"feat_dims":{"source":2},"enc_hidden":8,"upd_hidden":8,"out_hidden":8}`,
	} {
		var cfg Config
		if err := json.Unmarshal([]byte(bad), &cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("New accepted %s", bad)
		}
	}
}
