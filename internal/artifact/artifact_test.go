package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
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

// checked checks a test cluster, which must be valid.
func checked(c *hardware.Cluster) hardware.Checked {
	k, err := c.Check()
	if err != nil {
		panic(err)
	}
	return k
}

// analyzed analyses a test query, which must be valid.
func analyzed(q *stream.Query) *stream.Analysis {
	a, err := q.Analyze()
	if err != nil {
		panic(err)
	}
	return a
}

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

// encode returns the artifact Write produces for pred.
func encode(t testing.TB, pred *core.Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, pred, testProvenance()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// split cuts an artifact into its header line, weight sections and
// checksum.
func split(t testing.TB, data []byte) (header, body []byte) {
	t.Helper()
	line, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok || len(rest) < 4 {
		t.Fatal("artifact has no header line or checksum")
	}
	return line, rest[:len(rest)-4]
}

// join assembles an artifact from a header line and weight sections with
// a correct checksum, so a test reaches the checks behind the checksum.
func join(header, body []byte) []byte {
	data := append(append(append([]byte(nil), header...), '\n'), body...)
	return binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
}

// TestRoundTripBitIdentical is the core guarantee: Save -> Load produces
// a predictor whose per-placement and batched predictions are bit-equal
// to the in-memory original, across all five metrics and both ensemble
// members (any weight perturbation would shift the float64 outputs). The
// path's suffix selects nothing: under the format-1 names model.json and
// model.json.gz, Save writes the bytes Write produces.
func TestRoundTripBitIdentical(t *testing.T) {
	corp, pred := fixture(t)
	written := encode(t, pred)
	for _, name := range []string{"model.json", "model.json.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
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
				want, err := placement.PredictOne(pred, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
				if err != nil {
					t.Fatal(err)
				}
				got, err := placement.PredictOne(back, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
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
			want, wantErrs := placement.Score(context.Background(), pred, analyzed(tr.Query), checked(tr.Cluster), cands, placement.AllCosts)
			got, gotErrs := placement.Score(context.Background(), back, analyzed(tr.Query), checked(tr.Cluster), cands, placement.AllCosts)
			if err := errors.Join(append(wantErrs, gotErrs...)...); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("batch %d: reloaded %+v != original %+v", i, got[i], want[i])
				}
			}
			if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, written) {
				t.Errorf("%s: saved bytes differ from Write's (err %v)", name, err)
			}
		})
	}
}

// TestRoundTripKeepsGoldenWeights saves and reloads a predictor trained
// with core.TestTrainWeightsGolden's recipe: every weight of every member
// of all five metrics comes back with the same bits, and member 0's
// digests, recomputed on the reloaded weights, are the golden ones.
func TestRoundTripKeepsGoldenWeights(t *testing.T) {
	simCfg := sim.DefaultConfig()
	simCfg.DurationS, simCfg.WarmupS = 30, 5
	corp, err := dataset.Build(dataset.BuildConfig{N: 120, Seed: 1234, Gen: workload.DefaultConfig(1234), Sim: simCfg})
	if err != nil {
		t.Fatal(err)
	}
	train, val, _ := corp.Split(0.8, 0.2, 7)
	cfg := core.DefaultTrainConfig(7)
	cfg.Epochs, cfg.Patience, cfg.Hidden, cfg.BatchSize = 3, 0, 12, 8
	pred, err := core.TrainPredictor(train, val, core.PredictorConfig{Train: cfg, EnsembleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.costream")
	if err := Save(path, pred, testProvenance()); err != nil {
		t.Fatal(err)
	}
	back, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for s, e := range pred {
		for i, m := range e.Models {
			want := m.Net.Params()
			got := back[s].Models[i].Net.Params()
			for k := range want {
				for j := range want[k] {
					if math.Float64bits(got[k][j]) != math.Float64bits(want[k][j]) {
						t.Fatalf("%v member %d: weight %d[%d] reloaded as %v, saved %v", e.Metric, i, k, j, got[k][j], want[k][j])
					}
				}
			}
		}
	}
	if runtime.GOARCH != "amd64" {
		return // the digests are recorded on amd64
	}
	golden := map[core.Metric]string{ // TestTrainWeightsGolden's digests
		core.MetricE2ELatency: "7724f825a2e495a4c2b3b5275895368577dfb684b63ae99eb594d27901202a5d",
		core.MetricSuccess:    "e3beb9bfdb0166b218a00bd22edbd3fa6a1137ecf41bfaad2983e6469b1d8a44",
	}
	for m, want := range golden {
		params := back[m].Models[0].Net.Params()
		h := sha256.New()
		for _, p := range params {
			for _, v := range p {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%v: reloaded member 0 digest %s, want %s", m, got, want)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	_, pred := fixture(t)
	good := encode(t, pred)
	header, body := split(t, good)
	var hdr struct {
		Sections []core.Section `json:"sections"`
	}
	if err := json.Unmarshal(header, &hdr); err != nil {
		t.Fatal(err)
	}
	// v1 is the former format: one JSON document, gzip-compressed when
	// the path ended in .gz (v1gz, a gzip member header ahead of the
	// document; Read refuses a gzip stream by its magic alone).
	v1 := []byte(`{"magic":"costream-model","version":1,"provenance":{"created_at":"2026-07-29T12:00:00Z"},"predictor":{"throughput":{"metric":"throughput","members":[]}}}` + "\n")
	v1gz := append([]byte{0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff}, v1...)

	dir := t.TempDir()
	load := func(name string, data []byte) error {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(p)
		return err
	}
	wantErr := func(t *testing.T, err error, subs ...string) {
		t.Helper()
		for _, s := range subs {
			if err == nil || !strings.Contains(err.Error(), s) {
				t.Fatalf("error = %v, want it to contain %q", err, s)
			}
		}
	}

	t.Run("missing file", func(t *testing.T) {
		if _, _, err := Load(filepath.Join(dir, "nope.costream")); err == nil {
			t.Error("missing file loaded")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Mid-header, at the end of the header, at every section
		// boundary and one byte short of the checksum.
		cuts := []int{len(header) / 2, len(header), len(header) + 1}
		at := len(header) + 1
		for _, s := range hdr.Sections {
			at += s.Bytes
			cuts = append(cuts, at)
		}
		cuts = append(cuts, len(good)-1)
		for _, n := range cuts {
			if err := load("trunc.costream", good[:n]); err == nil {
				t.Errorf("artifact truncated to %d of %d bytes loaded", n, len(good))
			}
		}
	})
	t.Run("flipped body byte", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[len(header)+1+len(body)/2] ^= 0x10
		wantErr(t, load("flipped.costream", bad), "checksum mismatch")
	})
	t.Run("truncated gzip", func(t *testing.T) {
		wantErr(t, load("trunc.gz", v1gz[:6]), "version 1", "retrain")
	})
	t.Run("v1 gzip", func(t *testing.T) {
		wantErr(t, load("v1.gz", v1gz), "version 1", "retrain")
	})
	t.Run("v1 json", func(t *testing.T) {
		wantErr(t, load("v1.json", v1), "version 1", "retrain")
	})
	t.Run("corrupt json", func(t *testing.T) {
		wantErr(t, load("corrupt.json", []byte(`{"magic":"costream-model","version":2,"sections":[`)), "not a costream model artifact")
	})
	t.Run("wrong magic", func(t *testing.T) {
		wantErr(t, load("magic.costream", join([]byte(`{"magic":"not-a-model","version":2}`), body)), "not a costream model artifact")
	})
	t.Run("version mismatch", func(t *testing.T) {
		wantErr(t, load("future.costream", join([]byte(`{"magic":"costream-model","version":99}`), body)), "version 99")
	})
	t.Run("missing predictor", func(t *testing.T) {
		wantErr(t, load("empty.costream", join([]byte(`{"magic":"costream-model","version":2,"sections":[]}`), nil)), "no trained ensembles")
	})
	t.Run("section length disagrees with config", func(t *testing.T) {
		bad := bytes.Replace(header, []byte(`"config":{"hidden":8`), []byte(`"config":{"hidden":9`), 1)
		wantErr(t, load("config.costream", join(bad, body)), "throughput section")
	})
	t.Run("corrupt weights", func(t *testing.T) {
		// A NaN in the proc-latency ensemble's second member, behind a
		// correct checksum.
		bad := bytes.Clone(body)
		at := hdr.Sections[0].Bytes + hdr.Sections[1].Bytes/2 + 8
		binary.LittleEndian.PutUint64(bad[at:], math.Float64bits(math.NaN()))
		wantErr(t, load("nan.costream", join(header, bad)), "proc-latency ensemble member 1 has a non-finite weight")
	})
}

// TestLegacyFormatDetected covers the pre-artifact costream-train output:
// a bare gnn.Model JSON dump is foreign JSON like any other.
func TestLegacyFormatDetected(t *testing.T) {
	legacy := []byte(`{"config":{"hidden":8,"feat_dims":{"source":4}},"encoders":{},"updaters":{},"out":null}`)
	p := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(p, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Load(p)
	if err == nil || !strings.Contains(err.Error(), "not a costream model artifact") {
		t.Errorf("legacy file error = %v, want \"not a costream model artifact\"", err)
	}
}

// TestUnstackableEnsembleRefusedAtSave: a predictor whose success
// ensemble has traditional-passing members (the Exp 7b ablation, which the
// packed kernel cannot run), or a non-finite weight, is refused by Save
// with an error naming the metric, and no file is written: Load would
// refuse it, and a server would refuse every request.
func TestUnstackableEnsembleRefusedAtSave(t *testing.T) {
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
	cfg.Traditional = false
	inf := &core.Ensemble{Metric: core.MetricE2ELatency}
	for seed := int64(1); seed <= 2; seed++ {
		net, err := gnn.New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		inf.Models = append(inf.Models, &core.CostModel{Metric: core.MetricE2ELatency, Feat: feat, Net: net})
	}
	params := inf.Models[1].Net.Params()
	params[3][0] = math.Inf(-1)

	for _, tc := range []struct {
		slot  func(*core.Predictor)
		wants []string
	}{
		{func(p *core.Predictor) { p[core.MetricSuccess] = trad }, []string{"success ensemble cannot run the packed kernel", "traditional message passing"}},
		{func(p *core.Predictor) { p[core.MetricE2ELatency] = inf }, []string{"e2e-latency ensemble member 1 has a non-finite weight"}},
	} {
		bad := *pred
		tc.slot(&bad)
		path := filepath.Join(t.TempDir(), "refused.costream")
		err := Save(path, &bad, testProvenance())
		for _, want := range tc.wants {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("save error = %v, want %q", err, want)
			}
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("refused predictor left a file behind: %v", err)
		}
	}
}

func TestWriteNilPredictor(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil, Provenance{}); err == nil {
		t.Error("nil predictor written")
	}
}

// TestSaveAtomic checks that a failed save cannot clobber an existing
// artifact (Save writes a temp file and renames).
func TestSaveAtomic(t *testing.T) {
	_, pred := fixture(t)
	path := filepath.Join(t.TempDir(), "m.costream")
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

// FuzzLoad feeds arbitrary bytes to Read: it must never panic, and
// anything it accepts must be a predictor whose every ensemble stacks —
// one Save would write back.
func FuzzLoad(f *testing.F) {
	cfg := gnn.Config{Hidden: 1, FeatDims: map[gnn.NodeKind]int{gnn.KindSource: 1}, EncHidden: 1, UpdHidden: 1, OutHidden: 1}
	net, err := gnn.New(cfg, 1)
	if err != nil {
		f.Fatal(err)
	}
	tiny := (&core.Ensemble{Metric: core.MetricThroughput,
		Models: []*core.CostModel{{Metric: core.MetricThroughput, Net: net}}}).Predictor()
	f.Add(encode(f, tiny))
	f.Add([]byte(`{"magic":"costream-model","version":1,"provenance":{},"predictor":{}}` + "\n"))
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// As given, and with a trailer that matches, so that the fuzzer
		// also reaches the checks behind the checksum.
		inputs := [][]byte{data}
		if n := len(data) - 4; n >= 0 {
			inputs = append(inputs, binary.LittleEndian.AppendUint32(bytes.Clone(data[:n]), crc32.Checksum(data[:n], castagnoli)))
		}
		for _, in := range inputs {
			pred, _, err := Read(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if _, err := pred.Sections(); err != nil {
				t.Fatalf("loaded a predictor Save refuses: %v", err)
			}
		}
	})
}
