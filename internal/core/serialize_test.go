package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"costream/internal/placement"
)

// encodeWeights runs the save half of the weight codec: the sections as
// an artifact header carries them (through JSON) and the weight bytes.
func encodeWeights(t *testing.T, pr *Predictor) ([]Section, []byte) {
	t.Helper()
	secs, err := pr.Sections()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(secs)
	if err != nil {
		t.Fatal(err)
	}
	secs = nil
	if err := json.Unmarshal(data, &secs); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := pr.WriteWeights(&body); err != nil {
		t.Fatal(err)
	}
	return secs, body.Bytes()
}

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

// TestPredictorJSONRoundTripBitIdentical: a trained predictor through the
// weight codec — its sections through JSON, as the artifact header carries
// them — predicts bit-identically.
func TestPredictorJSONRoundTripBitIdentical(t *testing.T) {
	c := testCorpus(t)
	pred := trainTinyPredictor(t)
	back, err := DecodePredictor(encodeWeights(t, pred))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range c.Traces[:25] {
		want, err := placement.PredictOne(pred, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		got, err := placement.PredictOne(back, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("trace %d: reloaded prediction %+v != original %+v", i, got, want)
		}
	}
}

// TestCostModelJSONRoundTripPerMember: every member of a trained predictor,
// through the weight codec on its own as a one-member ensemble, keeps its
// metric and feature mode and predicts bit-identically.
func TestCostModelJSONRoundTripPerMember(t *testing.T) {
	pred := trainTinyPredictor(t)
	tr := testCorpus(t).Traces[0]
	for _, e := range pred.ensembles() {
		for i, m := range e.Models {
			one := &Ensemble{Metric: e.Metric, Models: []*CostModel{m}}
			back, err := DecodePredictor(encodeWeights(t, one.Predictor()))
			if err != nil {
				t.Fatal(err)
			}
			got := back[e.Metric].Models[0]
			if got.Metric != m.Metric || got.Feat.Mode != m.Feat.Mode {
				t.Fatalf("%v member %d: metadata changed: %v/%v", e.Metric, i, got.Metric, got.Feat.Mode)
			}
			want, err := m.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := got.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement); err != nil || v != want {
				t.Fatalf("%v member %d: reloaded raw prediction %v (err %v) != %v", e.Metric, i, v, err, want)
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
	one := &Ensemble{Metric: MetricProcLatency, Models: []*CostModel{cm}}
	back, err := DecodePredictor(encodeWeights(t, one.Predictor()))
	if err != nil {
		t.Fatal(err)
	}
	got := back[MetricProcLatency].Models[0]
	if got.Feat.Mode != FeatPlacementOnly || got.Metric != MetricProcLatency {
		t.Fatalf("decoded %v featurized %v, want %v featurized %v", got.Metric, got.Feat.Mode, MetricProcLatency, FeatPlacementOnly)
	}
	tr := c.Traces[0]
	want, err := cm.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := got.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement); err != nil || v != want {
		t.Fatalf("decoded raw prediction %v (err %v), want %v", v, err, want)
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

// TestUnmarshalRejectsCorruptModels: DecodePredictor refuses sections that
// do not describe their bytes, each with an error saying what is wrong.
func TestUnmarshalRejectsCorruptModels(t *testing.T) {
	secs, body := encodeWeights(t, randomEnsemble(t, MetricThroughput, 2, false).Predictor())
	if _, err := DecodePredictor(secs, body); err != nil {
		t.Fatal(err)
	}
	sec := secs[0]
	with := func(edit func(*Section)) []Section {
		s := sec
		edit(&s)
		return []Section{s}
	}
	nan := bytes.Clone(body)
	binary.LittleEndian.PutUint64(nan[len(nan)-8:], math.Float64bits(math.NaN()))
	cases := map[string]struct {
		secs []Section
		body []byte
		want string
	}{
		"unknown metric":       {with(func(s *Section) { s.Metric = "vibes" }), body, `unknown metric "vibes"`},
		"unknown feature mode": {with(func(s *Section) { s.FeatureMode = "psychic" }), body, `unknown feature mode "psychic"`},
		"no members":           {with(func(s *Section) { s.Members, s.Bytes = 0, 0 }), nil, "throughput section holds 0 bytes"},
		"length vs config":     {with(func(s *Section) { s.Bytes -= 8 }), body[8:], "throughput section holds"},
		"members vs length":    {with(func(s *Section) { s.Members = 3 }), body, "throughput section holds"},
		"bad width":            {with(func(s *Section) { s.Config.Hidden = 0 }), body, "layer widths and feature dimensions must lie in 1..65536"},
		"truncated":            {secs, body[:len(body)-8], "throughput section truncated"},
		"trailing bytes":       {secs, append(bytes.Clone(body), 0, 0, 0, 0, 0, 0, 0, 0), "8 bytes after the last weight section"},
		"no ensembles":         {nil, nil, "no trained ensembles"},
		"non-finite weight":    {secs, nan, "throughput ensemble member 1 has a non-finite weight NaN"},
		"unstackable":          {with(func(s *Section) { s.Config.Traditional = true }), body, "throughput ensemble cannot run the packed kernel"},
	}
	for name, tc := range cases {
		if _, err := DecodePredictor(tc.secs, tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want %q", name, err, tc.want)
		}
	}
}

// TestUnmarshalRejectsmetricMismatch: sections name their metric and fill
// that slot, in Metric order, so a repeated metric or one out of slot
// order is refused rather than one ensemble silently replacing another.
func TestUnmarshalRejectsmetricMismatch(t *testing.T) {
	secs, body := encodeWeights(t, predictorOf(
		randomEnsemble(t, MetricThroughput, 1, false),
		randomEnsemble(t, MetricSuccess, 1, false),
	))
	first := secs[0].Bytes
	for name, tc := range map[string]struct {
		secs []Section
		body []byte
	}{
		"repeated":     {[]Section{secs[0], secs[0]}, append(bytes.Clone(body[:first]), body[:first]...)},
		"out of order": {[]Section{secs[1], secs[0]}, append(bytes.Clone(body[first:]), body[:first]...)},
	} {
		if _, err := DecodePredictor(tc.secs, tc.body); err == nil || !strings.Contains(err.Error(), "section out of order or repeated") {
			t.Errorf("%s: error = %v, want the section refused as out of order or repeated", name, err)
		}
	}
}
