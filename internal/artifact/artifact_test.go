package artifact

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/workload"
)

// Shared tiny fixture: a small corpus and a full 5-metric, 2-member
// predictor trained once per test process.
var (
	fixOnce sync.Once
	fixErr  error
	fixCorp *dataset.Corpus
	fixPred *core.Predictor
)

func fixture(t *testing.T) (*dataset.Corpus, *core.Predictor) {
	t.Helper()
	fixOnce.Do(func() {
		simCfg := sim.DefaultConfig()
		simCfg.DurationS, simCfg.WarmupS = 30, 5
		fixCorp, fixErr = dataset.Build(dataset.BuildConfig{
			N: 120, Seed: 77, Gen: workload.DefaultConfig(77), Sim: simCfg,
		})
		if fixErr != nil {
			return
		}
		train, val, _ := fixCorp.Split(0.7, 0.1, 77)
		cfg := core.DefaultTrainConfig(77)
		cfg.Epochs, cfg.Patience, cfg.Hidden = 2, 0, 8
		fixPred, fixErr = core.TrainPredictor(train, val, core.PredictorConfig{
			Train: cfg, EnsembleSize: 2,
		})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixCorp, fixPred
}

func testProvenance() Provenance {
	return Provenance{
		CreatedAt:    time.Date(2026, 7, 29, 12, 0, 0, 0, time.UTC),
		TrainSeed:    77,
		CorpusSize:   120,
		Epochs:       2,
		EnsembleSize: 2,
		Hidden:       8,
		Note:         "test fixture",
	}
}

// TestRoundTripBitIdentical is the core guarantee: Save -> Load produces
// a predictor whose per-placement and batched predictions are bit-equal
// to the in-memory original, across all five metrics and both ensemble
// members (any weight perturbation would shift the float64 outputs).
func TestRoundTripBitIdentical(t *testing.T) {
	corp, pred := fixture(t)
	for _, ext := range []string{"model.json", "model.json.gz"} {
		t.Run(ext, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), ext)
			if err := Save(path, pred, testProvenance()); err != nil {
				t.Fatal(err)
			}
			back, prov, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if prov != testProvenance() {
				t.Errorf("provenance changed: %+v", prov)
			}
			if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
				t.Errorf("artifact mode %v (err %v), want 0644", st.Mode().Perm(), err)
			}
			for i, tr := range corp.Traces[:20] {
				want, err := placement.PredictOne(pred, tr.Query, tr.Cluster, tr.Placement)
				if err != nil {
					t.Fatal(err)
				}
				got, err := placement.PredictOne(back, tr.Query, tr.Cluster, tr.Placement)
				if err != nil {
					t.Fatal(err)
				}
				if want != got {
					t.Fatalf("trace %d: reloaded %+v != original %+v", i, got, want)
				}
			}
			// Batched predictions must agree too: batch several placements
			// of one trace's query drawn from other traces is not valid, so
			// batch the same placement thrice (exercises the batch path).
			tr := corp.Traces[0]
			cands := []sim.Placement{tr.Placement, tr.Placement, tr.Placement}
			want, wantErrs := placement.Score(context.Background(), pred, tr.Query, tr.Cluster, cands, placement.AllCosts, 1)
			got, gotErrs := placement.Score(context.Background(), back, tr.Query, tr.Cluster, cands, placement.AllCosts, 1)
			if err := errors.Join(append(wantErrs, gotErrs...)...); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("batch %d: reloaded %+v != original %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestGzipOutputIsCompressed(t *testing.T) {
	_, pred := fixture(t)
	dir := t.TempDir()
	plain := filepath.Join(dir, "m.json")
	packed := filepath.Join(dir, "m.json.gz")
	if err := Save(plain, pred, testProvenance()); err != nil {
		t.Fatal(err)
	}
	if err := Save(packed, pred, testProvenance()); err != nil {
		t.Fatal(err)
	}
	sp, _ := os.Stat(plain)
	sg, _ := os.Stat(packed)
	if sg.Size() >= sp.Size() {
		t.Errorf("gzip artifact (%d bytes) not smaller than plain (%d bytes)", sg.Size(), sp.Size())
	}
	head, err := os.ReadFile(packed)
	if err != nil {
		t.Fatal(err)
	}
	if head[0] != 0x1f || head[1] != 0x8b {
		t.Error("gz path did not produce a gzip stream")
	}
}

func TestLoadErrors(t *testing.T) {
	_, pred := fixture(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json.gz")
	if err := Save(good, pred, testProvenance()); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("missing file", func(t *testing.T) {
		if _, _, err := Load(filepath.Join(dir, "nope.json")); err == nil {
			t.Error("missing file loaded")
		}
	})
	t.Run("truncated gzip", func(t *testing.T) {
		p := write("trunc.json.gz", goodBytes[:len(goodBytes)/2])
		if _, _, err := Load(p); err == nil {
			t.Error("truncated gzip loaded")
		}
	})
	t.Run("corrupt json", func(t *testing.T) {
		p := write("corrupt.json", []byte(`{"magic":"costream-model","version":1,"predictor":{`))
		if _, _, err := Load(p); err == nil {
			t.Error("corrupt JSON loaded")
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		p := write("magic.json", []byte(`{"magic":"not-a-model","version":1}`))
		_, _, err := Load(p)
		if err == nil || !strings.Contains(err.Error(), "not a costream model artifact") {
			t.Errorf("wrong-magic error = %v", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		p := write("future.json", []byte(`{"magic":"costream-model","version":99,"predictor":{}}`))
		_, _, err := Load(p)
		if err == nil || !strings.Contains(err.Error(), "version 99") {
			t.Errorf("version-mismatch error = %v", err)
		}
	})
	t.Run("missing predictor", func(t *testing.T) {
		p := write("empty.json", []byte(`{"magic":"costream-model","version":1}`))
		if _, _, err := Load(p); err == nil {
			t.Error("artifact without predictor loaded")
		}
	})
	t.Run("corrupt weights", func(t *testing.T) {
		// Surgically corrupt a layer inside an otherwise valid artifact.
		zr, err := gzip.NewReader(bytes.NewReader(goodBytes))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(zr); err != nil {
			t.Fatal(err)
		}
		mangled := bytes.Replace(buf.Bytes(), []byte(`"w":[`), []byte(`"w":[1e9,`), 1)
		p := write("mangled.json", mangled)
		if _, _, err := Load(p); err == nil {
			t.Error("artifact with corrupted weight shapes loaded")
		}
	})
}

// TestLegacyFormatDetected covers the pre-artifact costream-train output:
// a bare gnn.Model JSON dump is foreign JSON like any other.
func TestLegacyFormatDetected(t *testing.T) {
	_, pred := fixture(t)
	legacy, err := json.Marshal(pred.Throughput.Models[0].Net)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(p, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(p)
	if err == nil || !strings.Contains(err.Error(), "not a costream model artifact") {
		t.Errorf("legacy file error = %v, want \"not a costream model artifact\"", err)
	}
}

// TestUnstackableEnsembleRejectedAtLoad: an artifact whose success
// ensemble has traditional-passing members (the Exp 7b ablation, which the
// packed kernel cannot run) fails to load with an error naming the metric,
// instead of loading into a server that refuses every request.
func TestUnstackableEnsembleRejectedAtLoad(t *testing.T) {
	_, pred := fixture(t)
	feat := core.Featurizer{}
	cfg := gnn.DefaultConfig(feat.FeatDims())
	cfg.Hidden, cfg.Traditional = 8, true
	trad := &core.Ensemble{Metric: core.MetricSuccess}
	for seed := int64(1); seed <= 2; seed++ {
		net, err := gnn.New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		trad.Models = append(trad.Models, &core.CostModel{Metric: core.MetricSuccess, Feat: feat, Net: net})
	}
	mixed := *pred
	mixed.Success = trad
	path := filepath.Join(t.TempDir(), "traditional.json.gz")
	if err := Save(path, &mixed, testProvenance()); err != nil {
		t.Fatal(err)
	}
	_, _, err := Load(path)
	if err == nil || !strings.Contains(err.Error(), "success ensemble cannot run the packed kernel") ||
		!strings.Contains(err.Error(), "traditional message passing") {
		t.Fatalf("load error = %v, want the success ensemble refused for traditional message passing", err)
	}
}

func TestWriteNilPredictor(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil, Provenance{}, false); err == nil {
		t.Error("nil predictor written")
	}
}

// TestSaveAtomic checks that a failed save cannot clobber an existing
// artifact (Save writes a temp file and renames).
func TestSaveAtomic(t *testing.T) {
	_, pred := fixture(t)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := Save(path, pred, testProvenance()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(path, nil, testProvenance()); err == nil {
		t.Fatal("nil predictor saved")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save modified the existing artifact")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp files left behind: %v", entries)
	}
}
