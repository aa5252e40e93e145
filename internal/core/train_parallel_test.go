package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"costream/internal/dataset"
	"costream/internal/gnn"
)

// subCorpus slices the shared test corpus so the training tests stay
// fast (also under -race).
func subCorpus(t testing.TB, n int) *dataset.Corpus {
	c := testCorpus(t)
	if len(c.Traces) < n {
		n = len(c.Traces)
	}
	return &dataset.Corpus{Traces: c.Traces[:n]}
}

func trainedParams(t *testing.T, metric Metric) [][]float64 {
	t.Helper()
	c := subCorpus(t, 120)
	train, val, _ := c.Split(0.8, 0.2, 7)
	cfg := DefaultTrainConfig(7)
	cfg.Epochs = 3
	cfg.Patience = 0
	cfg.Hidden = 12
	cfg.BatchSize = 8
	cm, err := Train(train, val, metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params, _ := cm.Net.Params()
	return snapshot(params)
}

// TestTrainEpochSteadyStateAllocs pins the arena guarantee on the real
// training path: once tapes, scratch, the gradient shadow and training
// mirrors are warm, a batch (forward + loss + backward on the full GNN
// per sample, then the shadow fold and the mirror refresh) performs zero
// heap allocations.
func TestTrainEpochSteadyStateAllocs(t *testing.T) {
	c := subCorpus(t, 40)
	feat := Featurizer{}
	samples := metricSamples(t, &feat, c, MetricE2ELatency)
	if len(samples) < 4 {
		t.Skipf("only %d usable samples", len(samples))
	}
	samples = samples[:4]
	gcfg := gnn.DefaultConfig(feat.FeatDims())
	gcfg.Hidden = 16
	net, err := gnn.New(gcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := newTapes()
	net.RefreshMirrors()
	defer net.DropMirrors()
	_, grads := net.Params()
	shadow := net.GradShadow()
	_, sg := shadow.Params()

	step := func() {
		// One chunk spanning all samples, on the shadow as chunks 1..7 of
		// a real batch are, then what fit does between batches.
		if _, err := tp.runChunk(shadow, MetricE2ELatency, samples, 0, 1, 0.25); err != nil {
			t.Fatal(err)
		}
		foldGrads(grads, sg)
		net.RefreshMirrors()
	}
	step() // warm the tape arena and scratch across all graph shapes
	step()
	if avg := testing.AllocsPerRun(20, step); avg > 0 {
		t.Errorf("steady-state allocs per %d-sample batch = %v, want 0", len(samples), avg)
	}
}

// atTrainBudget runs f with the process-wide training budget set to n
// fits and then restores the budget sized at init. A test that calls it
// must not call t.Parallel.
func atTrainBudget(n int, f func()) {
	defer func(prev chan struct{}) { trainBudget = prev }(trainBudget)
	trainBudget = make(chan struct{}, n)
	f()
}

// TestSetTrainBudget sanity-checks the process-wide budget: training
// still works with a budget of 1.
func TestSetTrainBudget(t *testing.T) {
	c := subCorpus(t, 60)
	train, _, _ := c.Split(0.9, 0.05, 5)
	cfg := DefaultTrainConfig(5)
	cfg.Epochs = 1
	cfg.Patience = 0
	cfg.Hidden = 8
	var err error
	atTrainBudget(1, func() { _, err = Train(train, nil, MetricProcLatency, cfg) })
	if err != nil {
		t.Fatal(err)
	}
}

// TestFoldGradsOrderAndClear checks the shadow fold against the plain
// loop the many-shadow reduction used to be: folding chunk after chunk
// leaves the destination at its own contents (chunk 0) plus the chunks
// in order, element by element, and every fold leaves the shadow
// all-zero. Odd lengths reach the vector kernel's tails; magnitudes
// spread over many binades make the sum order visible in the bits.
func TestFoldGradsOrderAndClear(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	lengths := []int{1, 3, 7, 17, 33, 129}
	fill := func() [][]float64 {
		gs := make([][]float64, len(lengths))
		for k, n := range lengths {
			gs[k] = make([]float64, n)
			for i := range gs[k] {
				gs[k][i] = (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(40)-20)
			}
		}
		return gs
	}
	dst := fill()
	want := snapshot(dst)
	for c := 1; c < maxGradChunks; c++ {
		shadow := fill()
		for k := range want {
			for i, v := range shadow[k] {
				want[k][i] += v
			}
		}
		foldGrads(dst, shadow)
		for k := range want {
			for i := range want[k] {
				if math.Float64bits(dst[k][i]) != math.Float64bits(want[k][i]) {
					t.Fatalf("chunk %d: dst %d[%d] = %v, want %v", c, k, i, dst[k][i], want[k][i])
				}
			}
			for i, v := range shadow[k] {
				if math.Float64bits(v) != 0 {
					t.Fatalf("chunk %d: shadow %d[%d] = %v after the fold, want +0", c, k, i, v)
				}
			}
		}
	}
}

// weightDigest is the SHA-256 over the IEEE-754 bits of every parameter,
// in Params order.
func weightDigest(params [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range params {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainWeightsGolden pins the training arithmetic itself: the weight
// bits of a fixed tiny recipe, for both loss heads, recorded from the
// scalar tape/backward/Adam loops before any vector kernel replaced
// them. A kernel (or any later change) that reorders one accumulation or
// fuses one multiply-add changes these digests.
func TestTrainWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler fuses x*y+z into one rounding on arm64, ppc64le,
		// s390x and riscv64, so the portable loops give other bits there.
		t.Skip("golden digests are recorded on amd64")
	}
	golden := map[Metric]string{
		MetricE2ELatency: "7724f825a2e495a4c2b3b5275895368577dfb684b63ae99eb594d27901202a5d",
		MetricSuccess:    "e3beb9bfdb0166b218a00bd22edbd3fa6a1137ecf41bfaad2983e6469b1d8a44",
	}
	for _, metric := range []Metric{MetricE2ELatency, MetricSuccess} {
		if got := weightDigest(trainedParams(t, metric)); got != golden[metric] {
			t.Errorf("%v: weight digest %s, want %s", metric, got, golden[metric])
		}
	}
}

// predictorGolden is the SHA-256 over every (metric, member) model's
// parameter bits, in metric then member order, of predictorDigest's
// recipe. It was recorded while the metrics still trained one after
// another.
const predictorGolden = "1193b0c9a9e9d99a50025d8e2d192ccff0649496cab342395922e4f068a0fdba"

// predictorDigest trains a tiny five-metric, two-member predictor and
// returns its weight digest.
func predictorDigest(train, val *dataset.Corpus) (string, error) {
	cfg := DefaultTrainConfig(7)
	cfg.Epochs = 2
	cfg.Patience = 0
	cfg.Hidden = 8
	pr, err := TrainPredictor(train, val, PredictorConfig{Train: cfg, EnsembleSize: 2})
	if err != nil {
		return "", err
	}
	var all [][]float64
	for _, m := range AllMetrics() {
		if pr[m] == nil || len(pr[m].Models) != 2 {
			return "", fmt.Errorf("%v ensemble %v, want 2 members", m, pr[m])
		}
		for _, cm := range pr[m].Models {
			params, _ := cm.Net.Params()
			all = append(all, params...)
		}
	}
	return weightDigest(all), nil
}

// TestTrainPredictorWeightsGolden pins a whole predictor's weights at
// every training budget, since the budget may not move a bit.
func TestTrainPredictorWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digest is recorded on amd64")
	}
	c := subCorpus(t, 120)
	train, val, _ := c.Split(0.8, 0.2, 7)
	for _, budget := range []int{1, 2, 5} {
		var got string
		var err error
		atTrainBudget(budget, func() { got, err = predictorDigest(train, val) })
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if got != predictorGolden {
			t.Errorf("budget %d: predictor weight digest %s, want %s", budget, got, predictorGolden)
		}
	}
}

// TestTrainPredictorConcurrentGolden runs two predictor trainings at once
// on one budget, so their fits queue for the same tokens: each must
// still reproduce the golden weights. Under -race it also checks that
// fits sharing the samples' graphs and the budget do not race.
func TestTrainPredictorConcurrentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digest is recorded on amd64")
	}
	c := subCorpus(t, 120)
	train, val, _ := c.Split(0.8, 0.2, 7)
	for _, budget := range []int{1, 2} {
		var digests [2]string
		var errs [2]error
		atTrainBudget(budget, func() {
			var wg sync.WaitGroup
			for i := range digests {
				wg.Add(1)
				go func() {
					defer wg.Done()
					digests[i], errs[i] = predictorDigest(train, val)
				}()
			}
			wg.Wait()
		})
		for i := range digests {
			if errs[i] != nil {
				t.Fatalf("budget %d call %d: %v", budget, i, errs[i])
			}
			if digests[i] != predictorGolden {
				t.Errorf("budget %d call %d: predictor weight digest %s, want %s", budget, i, digests[i], predictorGolden)
			}
		}
	}
}

// TestTrainPredictorFailureDeterministic checks how concurrently trained
// fits fail: on a corpus of failed traces the regression metrics have no
// samples, and the error is always the first failing fit's in pull order
// (largest training set first, so throughput's), naming its metric, at
// any budget.
func TestTrainPredictorFailureDeterministic(t *testing.T) {
	var traces []*dataset.Trace
	for i := 0; i < 6; i++ {
		traces = append(traces, fakeTrace(t, false, i%2 == 0))
	}
	c := &dataset.Corpus{Traces: traces}
	cfg := DefaultTrainConfig(3)
	cfg.Epochs = 1
	cfg.Hidden = 8
	const want = "core: training throughput: core: no usable training traces for throughput"
	for _, budget := range []int{1, 4} {
		for run := 0; run < 3; run++ {
			var err error
			atTrainBudget(budget, func() { _, err = TrainPredictor(c, nil, PredictorConfig{Train: cfg, EnsembleSize: 2}) })
			if err == nil || err.Error() != want {
				t.Fatalf("budget %d run %d: error %v, want %q", budget, run, err, want)
			}
		}
	}
}
