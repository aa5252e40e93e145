package core

import (
	"bytes"
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
	params := cm.Net.Params()
	return snapshot(params)
}

// TestTrainEpochSteadyStateAllocs pins the arena guarantee on the real
// training path: once tapes, scratch, the gradient shadow and training
// mirrors are warm, a batch (forward + loss + backward on the full GNN
// per sample, then the fold of the shadow's touched layers and the Adam
// step, which clears the gradients and writes the mirrors) performs
// zero heap allocations. It sets the state up, folds and releases it
// through the fit's own fitState.
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
	st := tp.newFitState(net, 1e-3)
	defer st.release()

	step := func() {
		// One chunk spanning all samples, on the shadow as chunks 1..7 of
		// a real batch are, then what fit does between batches.
		if _, err := tp.runChunk(st.shadow, MetricE2ELatency, samples, 0, 1, 0.25); err != nil {
			t.Fatal(err)
		}
		st.fold()
		st.opt.Step()
	}
	step() // warm the tape arena and scratch across all graph shapes
	step()
	if avg := testing.AllocsPerRun(20, step); avg > 0 {
		t.Errorf("steady-state allocs per %d-sample batch = %v, want 0", len(samples), avg)
	}
}

// gradsOf returns every gradient buffer of net, GW then GB per layer, in
// the order of Params.
func gradsOf(net *gnn.Model) [][]float64 {
	var grads [][]float64
	for _, l := range net.Linears() {
		grads = append(grads, l.GW, l.GB)
	}
	return grads
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

// TestFoldGradsOrderAndClear checks the fit's shadow fold (fitState.fold)
// against the plain loop over every gradient group that it replaces:
// chunk after chunk of one sample each is backpropagated into the shadow
// of a real model and folded, and the destination must equal its own
// contents (chunk 0) plus the shadow's gradients, group by group and
// element by element, the untouched groups' +0 included; every fold
// leaves the shadow all +0. The chunks' graphs hold different node kinds,
// so folds that skip untouched layers must occur, and the test fails if
// none does.
// Destination magnitudes spread over many binades make the sum order
// visible in the bits.
func TestFoldGradsOrderAndClear(t *testing.T) {
	feat := Featurizer{}
	samples := metricSamples(t, &feat, subCorpus(t, 60), MetricE2ELatency)
	if len(samples) < maxGradChunks {
		t.Skipf("only %d usable samples", len(samples))
	}
	gcfg := gnn.DefaultConfig(feat.FeatDims())
	gcfg.Hidden = 8
	net, err := gnn.New(gcfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	tp := newTapes()
	st := tp.newFitState(net, 1e-3)
	defer st.release()
	dst := gradsOf(net)
	src := gradsOf(st.shadow)
	rng := rand.New(rand.NewSource(16))
	for _, g := range dst {
		for i := range g {
			g[i] = (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(40)-20)
		}
	}
	skipped := 0
	for c := 1; c < maxGradChunks; c++ {
		if _, err := tp.runChunk(st.shadow, MetricE2ELatency, samples[c*len(samples)/maxGradChunks:], 0, len(samples), 1); err != nil {
			t.Fatal(err)
		}
		want := snapshot(dst)
		for k, g := range src {
			untouched := true
			for i, v := range g {
				want[k][i] += v
				untouched = untouched && math.Float64bits(v) == 0
			}
			if untouched {
				skipped++
			}
		}
		st.fold()
		for k := range want {
			for i := range want[k] {
				if math.Float64bits(dst[k][i]) != math.Float64bits(want[k][i]) {
					t.Fatalf("chunk %d: dst %d[%d] = %v, want %v", c, k, i, dst[k][i], want[k][i])
				}
			}
			for i, v := range src[k] {
				if math.Float64bits(v) != 0 {
					t.Fatalf("chunk %d: shadow %d[%d] = %v after the fold, want +0", c, k, i, v)
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("every chunk reached every gradient group: the fold of untouched layers was never skipped")
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
			params := cm.Net.Params()
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

// TestFailedFineTuneRestoresWeights: a fine-tune in which no epoch
// reaches a finite loss fails, leaves every weight bit where it started
// and, like a fit that succeeds, leaves no layer holding gradients or a
// training mirror. A rate of 1e300 sends the weights past any finite loss on the
// first step, so every epoch's mean loss is non-finite; the test checks
// that it is, and that the fit did move the weights before failing.
func TestFailedFineTuneRestoresWeights(t *testing.T) {
	c := subCorpus(t, 60)
	train, _, _ := c.Split(0.8, 0.1, 8)
	cfg := fastTrainConfig(1)
	cfg.Epochs = 1
	cfg.Hidden = 8
	m, err := Train(train, nil, MetricE2ELatency, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Net.Params()
	before := snapshot(params)

	ft := cfg
	ft.Epochs, ft.Patience, ft.BatchSize, ft.LR = 3, 0, 4, 1e300
	var losses []float64
	var moved bool
	ft.Observer = func(s EpochStats) {
		losses = append(losses, s.ValLoss)
		p := m.Net.Params()
		moved = moved || math.Float64bits(p[0][0]) != math.Float64bits(before[0][0])
	}
	if err := m.FineTune(train, ft); err == nil {
		t.Fatal("a fine-tune with no finite epoch succeeded")
	}
	if len(losses) != ft.Epochs || !moved {
		t.Fatalf("%d epochs observed (want %d), weights moved %v: the case does not test what it names", len(losses), ft.Epochs, moved)
	}
	for e, l := range losses {
		if !math.IsNaN(l) && !math.IsInf(l, 0) {
			t.Fatalf("epoch %d reached the finite loss %v: the case does not test what it names", e, l)
		}
	}
	after := m.Net.Params()
	for k := range before {
		for i := range before[k] {
			if math.Float64bits(after[k][i]) != math.Float64bits(before[k][i]) {
				t.Fatalf("weight %d[%d] = %v after the failed fine-tune, want %v", k, i, after[k][i], before[k][i])
			}
		}
	}
	for k, l := range m.Net.Linears() {
		if l.HasFitState() {
			t.Errorf("layer %d holds gradients or a training mirror after the failed fine-tune", k)
		}
	}
}

// TestRunnerSecondFitAllocatesNoTapeStorage: at GOMAXPROCS=1 and a
// training budget of one fit, one runner trains every fit of a predictor,
// one after another on its one tapes. A three-member predictor must then
// allocate what a two-member predictor does plus a fit on warm tapes and
// the job's two sample-slice copies, and nothing more: a fit after the
// runner's first allocates no tape storage. (Two and three members, not
// one and two: sorting a single job allocates nothing, sorting more does.)
// The counts are equal in most runs; the comparison allows runtimeSlack
// for the runtime's own allocations (starting a runner goroutine, a GC
// cycle), which move them by two or four between runs. A fit on fresh
// tapes costs over a thousand more, and the test checks that it costs
// more than the slack. One epoch keeps every count independent of the
// weights: the best-weights snapshot is never taken.
func TestRunnerSecondFitAllocatesNoTapeStorage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := subCorpus(t, 60)
	train, val, _ := c.Split(0.8, 0.2, 4)
	trainRecs, valRecs, err := featurizeSplit(FeatFull, train, val)
	if err != nil {
		t.Fatal(err)
	}
	tc := fastTrainConfig(2)
	tc.Epochs, tc.Patience, tc.Hidden = 1, 0, 8
	mallocs := func(f func()) int64 {
		var a, b runtime.MemStats
		// Two collections empty tapesPool, so every measured predictor
		// starts its runner on fresh tapes, as a call did before the
		// runners' tapes were pooled, and the race detector's random
		// drops of pooled tapes move no count.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return int64(b.Mallocs - a.Mallocs)
	}
	predictor := func(members int) int64 {
		return mallocs(func() {
			cfg := PredictorConfig{Train: tc, EnsembleSize: members, Metrics: []Metric{MetricE2ELatency}}
			if _, err := trainPredictorFromRecords(trainRecs, valRecs, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	fit := func(tp *tapes) int64 {
		ts, vs := samplesFromRecords(trainRecs, MetricE2ELatency), samplesFromRecords(valRecs, MetricE2ELatency)
		return mallocs(func() {
			if _, err := trainFromSamples(tp, MetricE2ELatency, ts, vs, tc); err != nil {
				t.Fatal(err)
			}
		})
	}
	atTrainBudget(1, func() {
		predictor(1) // warm whatever the first call of anything allocates
		two, three := predictor(2), predictor(3)
		warmTapes := newTapes()
		fit(warmTapes)
		warm, cold := fit(warmTapes), fit(newTapes())
		const runtimeSlack = 8
		if cold-warm <= runtimeSlack {
			t.Fatalf("a fit on fresh tapes allocates %d objects, on warm ones %d: the tapes cost too little to measure", cold, warm)
		}
		if extra := three - two; extra < warm+2-runtimeSlack || extra > warm+2+runtimeSlack {
			t.Errorf("the third member cost %d allocations, want %d±%d (a fit on warm tapes, %d, and two sample copies); a fit on fresh tapes costs %d",
				extra, warm+2, runtimeSlack, warm, cold)
		}
	})
}

// TestModelsHoldNoFitState: gradient buffers and training mirrors live
// only inside a fit, so no layer of a model that Train, FineTune,
// TrainPredictor or DecodePredictor returns holds either.
func TestModelsHoldNoFitState(t *testing.T) {
	c := subCorpus(t, 60)
	train, val, _ := c.Split(0.8, 0.2, 3)
	cfg := DefaultTrainConfig(3)
	cfg.Epochs = 2
	cfg.Patience = 0
	cfg.Hidden = 8
	check := func(what string, pr *Predictor) {
		t.Helper()
		for _, e := range pr.ensembles() {
			for i, m := range e.Models {
				for k, l := range m.Net.Linears() {
					if l.HasFitState() {
						t.Errorf("%s: %v member %d layer %d holds gradients or a training mirror", what, e.Metric, i, k)
					}
				}
			}
		}
	}
	cm, err := Train(train, val, MetricE2ELatency, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("Train", (&Ensemble{Metric: cm.Metric, Models: []*CostModel{cm}}).Predictor())
	if err := cm.FineTune(val, cfg); err != nil {
		t.Fatal(err)
	}
	check("FineTune", (&Ensemble{Metric: cm.Metric, Models: []*CostModel{cm}}).Predictor())

	pr, err := TrainPredictor(train, val, PredictorConfig{Train: cfg, EnsembleSize: 2,
		Metrics: []Metric{MetricE2ELatency, MetricSuccess}})
	if err != nil {
		t.Fatal(err)
	}
	check("TrainPredictor", pr)
	secs, err := pr.Sections()
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := pr.WriteWeights(&body); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePredictor(secs, body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	check("DecodePredictor", back)
}
