package core

import (
	"encoding/json"
	"testing"

	"costream/internal/placement"
)

// trainTinyPredictor trains a minimal full predictor for serialization
// tests: all five metrics, two ensemble members, one epoch.
func trainTinyPredictor(t *testing.T) *Predictor {
	t.Helper()
	c := testCorpus(t)
	train, val, _ := c.Split(0.7, 0.1, 5)
	cfg := fastTrainConfig(5)
	cfg.Epochs = 1
	cfg.Hidden = 8
	pred, err := TrainPredictor(train, val, PredictorConfig{Train: cfg, EnsembleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func TestPredictorJSONRoundTripBitIdentical(t *testing.T) {
	pred := trainTinyPredictor(t)
	data, err := json.Marshal(pred)
	if err != nil {
		t.Fatal(err)
	}
	var back Predictor
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	c := testCorpus(t)
	checked := 0
	for _, tr := range c.Traces[:25] {
		want, err := placement.PredictOne(pred, tr.Query, tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		got, err := placement.PredictOne(&back, tr.Query, tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("trace %d: reloaded prediction %+v != original %+v", checked, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no traces checked")
	}
}

func TestCostModelJSONRoundTripPerMember(t *testing.T) {
	pred := trainTinyPredictor(t)
	c := testCorpus(t)
	tr := c.Traces[0]
	for _, e := range []*Ensemble{pred.Throughput, pred.ProcLatency, pred.E2ELatency, pred.Backpressure, pred.Success} {
		for i, m := range e.Models {
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			var back CostModel
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back.Metric != m.Metric || back.Feat.Mode != m.Feat.Mode {
				t.Fatalf("%v member %d: metadata changed: %v/%v", e.Metric, i, back.Metric, back.Feat.Mode)
			}
			want, err := m.PredictRaw(tr.Query, tr.Cluster, tr.Placement)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.PredictRaw(tr.Query, tr.Cluster, tr.Placement)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("%v member %d: reloaded raw prediction %v != %v", e.Metric, i, got, want)
			}
		}
	}
}

func TestSerializePreservesFeatureMode(t *testing.T) {
	c := testCorpus(t)
	train, val, _ := c.Split(0.7, 0.1, 6)
	cfg := fastTrainConfig(6)
	cfg.Epochs = 1
	cfg.Hidden = 8
	cfg.Mode = FeatPlacementOnly
	cm, err := Train(train, val, MetricProcLatency, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cm)
	if err != nil {
		t.Fatal(err)
	}
	var back CostModel
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Feat.Mode != FeatPlacementOnly {
		t.Fatalf("feature mode %v, want %v", back.Feat.Mode, FeatPlacementOnly)
	}
}

func TestParseMetricAndFeatureMode(t *testing.T) {
	for _, m := range AllMetrics() {
		got, err := ParseMetric(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMetric(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMetric("nope"); err == nil {
		t.Error("ParseMetric accepted garbage")
	}
	for _, fm := range []FeatureMode{FeatFull, FeatPlacementOnly, FeatQueryOnly} {
		got, err := ParseFeatureMode(fm.String())
		if err != nil || got != fm {
			t.Errorf("ParseFeatureMode(%q) = %v, %v", fm.String(), got, err)
		}
	}
	if _, err := ParseFeatureMode("nope"); err == nil {
		t.Error("ParseFeatureMode accepted garbage")
	}
}

func TestUnmarshalRejectsCorruptModels(t *testing.T) {
	cases := map[string]struct {
		data string
		into func() json.Unmarshaler
	}{
		"unknown metric": {
			data: `{"metric":"vibes","feature_mode":"full","net":null}`,
			into: func() json.Unmarshaler { return &CostModel{} },
		},
		"unknown feature mode": {
			data: `{"metric":"throughput","feature_mode":"psychic","net":null}`,
			into: func() json.Unmarshaler { return &CostModel{} },
		},
		"missing net": {
			data: `{"metric":"throughput","feature_mode":"full"}`,
			into: func() json.Unmarshaler { return &CostModel{} },
		},
		"empty ensemble": {
			data: `{"metric":"throughput","members":[]}`,
			into: func() json.Unmarshaler { return &Ensemble{} },
		},
		"null member": {
			data: `{"metric":"throughput","members":[null]}`,
			into: func() json.Unmarshaler { return &Ensemble{} },
		},
		"predictor with no ensembles": {
			data: `{}`,
			into: func() json.Unmarshaler { return &Predictor{} },
		},
	}
	for name, tc := range cases {
		if err := tc.into().UnmarshalJSON([]byte(tc.data)); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func TestUnmarshalRejectsmetricMismatch(t *testing.T) {
	pred := trainTinyPredictor(t)
	member, err := json.Marshal(pred.Throughput.Models[0])
	if err != nil {
		t.Fatal(err)
	}
	// An ensemble claiming proc-latency but holding a throughput member.
	bad := []byte(`{"metric":"proc-latency","members":[` + string(member) + `]}`)
	var e Ensemble
	if err := json.Unmarshal(bad, &e); err == nil {
		t.Error("metric-mismatched ensemble accepted")
	}
	// A predictor with a throughput ensemble in the success slot.
	ens, err := json.Marshal(pred.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	var pr Predictor
	if err := json.Unmarshal([]byte(`{"success":`+string(ens)+`}`), &pr); err == nil {
		t.Error("slot-mismatched predictor accepted")
	}
}
