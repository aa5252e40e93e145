package core

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// workspaceSplit featurizes a train/validation split of the shared test
// corpus for the workspace tests.
func workspaceSplit(t *testing.T, n int) (trainRecs, valRecs []record) {
	t.Helper()
	train, val, _ := subCorpus(t, n).Split(0.8, 0.2, 5)
	trainRecs, valRecs, err := featurizeSplit(FeatFull, train, val)
	if err != nil {
		t.Fatal(err)
	}
	return trainRecs, valRecs
}

// TestWorkspaceReuseKeepsWeightBits: a fit on tapes an earlier fit left
// behind trains, bit for bit, the weights a fit on fresh tapes does —
// tapes that a fit failing in its second batch left dirty (after a fold,
// an Adam step and a chunk's backprop into the shadow, so gradients,
// shadow gradients, moments and mirrors all hold its values), and tapes
// whose slab a larger architecture grew.
func TestWorkspaceReuseKeepsWeightBits(t *testing.T) {
	trainRecs, valRecs := workspaceSplit(t, 120)
	ts, vs := samplesFromRecords(trainRecs, MetricE2ELatency), samplesFromRecords(valRecs, MetricE2ELatency)
	cfg := DefaultTrainConfig(5)
	cfg.Epochs, cfg.Patience, cfg.Hidden = 2, 0, 8
	const failAt = 10 // sample 10 of a batch runs in chunk 2
	if len(ts) <= cfg.BatchSize+failAt {
		t.Fatalf("only %d training samples", len(ts))
	}
	digest := func(tp *tapes, c TrainConfig, train []sample) (string, error) {
		cm, err := trainFromSamples(tp, MetricE2ELatency, train, slices.Clone(vs), c)
		if err != nil {
			return "", err
		}
		return weightDigest(cm.Net.Params()), nil
	}
	want, err := digest(newTapes(), cfg, slices.Clone(ts))
	if err != nil {
		t.Fatal(err)
	}

	// Break the sample that the first epoch's shuffle (fit's first draw
	// of its rng) puts at position failAt of the second batch: its first
	// node is one feature short, which the forward pass refuses.
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	rand.New(rand.NewSource(cfg.Seed^0x5EED)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	bad := slices.Clone(ts)
	s := &bad[order[cfg.BatchSize+failAt]]
	g := *s.graph
	g.Nodes = slices.Clone(g.Nodes)
	g.Nodes[0].Feat = g.Nodes[0].Feat[:len(g.Nodes[0].Feat)-1]
	s.graph = &g
	dirty := newTapes()
	if _, err := digest(dirty, cfg, bad); err == nil || !strings.Contains(err.Error(), "features") {
		t.Fatalf("the fit over a broken sample returned %v, want the forward pass's refusal", err)
	}
	if got, err := digest(dirty, cfg, slices.Clone(ts)); err != nil || got != want {
		t.Errorf("on tapes a failed fit left dirty: weights %s (error %v), want %s as on fresh tapes", got, err, want)
	}

	grown := newTapes()
	big := cfg
	big.Hidden = 16
	if _, err := digest(grown, big, slices.Clone(ts)); err != nil {
		t.Fatal(err)
	}
	if got, err := digest(grown, cfg, slices.Clone(ts)); err != nil || got != want {
		t.Errorf("on tapes a larger model grew: weights %s (error %v), want %s as on fresh tapes", got, err, want)
	}
}

// TestFineTuneOnPooledWorkspace: FineTune after TrainPredictor takes its
// tapes from the pool the predictor's runners returned theirs to. A
// fine-tune that fails — a rate of 1e300 fills the pooled gradients and
// moments with non-finite values — still leaves every weight where it
// started and no fit state on any layer, and a fine-tune after it trains
// the weights a fine-tune on fresh tapes does.
func TestFineTuneOnPooledWorkspace(t *testing.T) {
	c := subCorpus(t, 60)
	train, val, _ := c.Split(0.8, 0.2, 6)
	cfg := DefaultTrainConfig(6)
	cfg.Epochs, cfg.Patience, cfg.Hidden = 2, 0, 8
	pc := PredictorConfig{Train: cfg, EnsembleSize: 2, Metrics: []Metric{MetricE2ELatency}}
	pr, err := TrainPredictor(train, val, pc)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := TrainPredictor(train, val, pc)
	if err != nil {
		t.Fatal(err)
	}
	cm, ref := pr[MetricE2ELatency].Models[0], twin[MetricE2ELatency].Models[0]
	start := weightDigest(cm.Net.Params())

	diverge := cfg
	diverge.BatchSize, diverge.LR = 4, 1e300
	if err := cm.FineTune(val, diverge); err == nil {
		t.Fatal("a fine-tune at rate 1e300 succeeded")
	}
	if got := weightDigest(cm.Net.Params()); got != start {
		t.Fatalf("weights %s after the failed fine-tune, want %s", got, start)
	}
	for k, l := range cm.Net.Linears() {
		if l.HasFitState() {
			t.Fatalf("layer %d holds gradients or a training mirror after the failed fine-tune", k)
		}
	}

	if err := cm.FineTune(val, cfg); err != nil {
		t.Fatal(err)
	}
	recs, err := featurizeCorpus(&ref.Feat, val)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.fit(newTapes(), samplesFromRecords(recs, ref.Metric), nil, cfg); err != nil {
		t.Fatal(err)
	}
	if got, want := weightDigest(cm.Net.Params()), weightDigest(ref.Net.Params()); got != want {
		t.Errorf("fine-tuned on pooled tapes: weights %s, on fresh tapes %s", got, want)
	}
}

// TestConcurrentPredictorsSharePool trains predictors of two widths at
// once, twice over, so that their runners take and return tapes of
// either width from the one pool: each must reproduce the weights it
// trains alone. Under -race it checks that no tapes is lent twice.
func TestConcurrentPredictorsSharePool(t *testing.T) {
	trainRecs, valRecs := workspaceSplit(t, 60)
	digest := func(hidden int) (string, error) {
		cfg := DefaultTrainConfig(9)
		cfg.Epochs, cfg.Patience, cfg.Hidden = 1, 0, hidden
		pr, err := trainPredictorFromRecords(trainRecs, valRecs, PredictorConfig{Train: cfg, EnsembleSize: 2,
			Metrics: []Metric{MetricE2ELatency, MetricSuccess}})
		if err != nil {
			return "", err
		}
		var all [][]float64
		for _, e := range pr.ensembles() {
			for _, m := range e.Models {
				all = append(all, m.Net.Params()...)
			}
		}
		return weightDigest(all), nil
	}
	widths := []int{8, 12}
	want := make([]string, len(widths))
	for i, h := range widths {
		var err error
		if want[i], err = digest(h); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, 2*len(widths))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = digest(widths[i%len(widths)])
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if w := want[i%len(widths)]; got[i] != w {
			t.Errorf("call %d (hidden %d): weights %s, alone %s", i, widths[i%len(widths)], got[i], w)
		}
	}
}

// TestWarmTrainPredictorAllocatesItsModels: once the pool holds its
// runners' tapes, a predictor of the benchmark's shape (five metrics,
// one member, hidden 24, one epoch) allocates its models' weights and
// the ensembles' stacks and little else: no gradients, shadow, mirrors,
// moments or tape arenas, which a fit on fresh tapes allocates anew.
// The bytes are read from MemStats around whole calls — the fits run on
// several goroutines, and testing.AllocsPerRun would pin GOMAXPROCS to
// 1 — and the fewest of three calls is taken. workspaceSlack covers
// what a call allocates beside the weights: per fit the training
// graphs' sample copies, the gradient shadow's layer structs, the rng
// and the parameter lists, and the models' and stacks' size-class
// rounding; one fit's workspace is several times larger.
func TestWarmTrainPredictorAllocatesItsModels(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random quarter of sync.Pool's puts, and with them the warm tapes measured here")
	}
	const workspaceSlack = 512 << 10
	trainRecs, valRecs := workspaceSplit(t, 200)
	tc := DefaultTrainConfig(4)
	tc.Epochs, tc.Patience, tc.Hidden = 1, 0, 24
	cfg := PredictorConfig{Train: tc, EnsembleSize: 1}
	var pr *Predictor
	call := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if pr, err = trainPredictorFromRecords(trainRecs, valRecs, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	call() // fill the pool
	best := call()
	for range 2 {
		best = min(best, call())
	}
	var weights, workspace uint64
	for _, e := range pr.ensembles() {
		for _, m := range e.Models {
			weights += 8 * uint64(m.Net.NumParams())
			workspace = max(workspace, 8*5*uint64(m.Net.NumParams()))
		}
	}
	stacks := weights // a stack holds its members' weights once more
	t.Logf("a warm predictor allocates %d KiB: weights %d KiB, stacks %d KiB; one fit's workspace is %d KiB",
		best>>10, weights>>10, stacks>>10, workspace>>10)
	if workspace <= workspaceSlack {
		t.Fatalf("a fit's workspace (%d KiB) fits in the slack (%d KiB): the test cannot see one", workspace>>10, workspaceSlack>>10)
	}
	if best > weights+stacks+workspaceSlack {
		t.Errorf("a warm predictor allocates %d KiB, want at most its weights and stacks (%d KiB) plus %d KiB",
			best>>10, (weights+stacks)>>10, workspaceSlack>>10)
	}
}

// TestTrainPredictorStacksEveryEnsemble: training builds every
// ensemble's weight stack, so a trained predictor holds every stack
// before its first prediction; and when the members cannot
// stack (traditional message passing), the first ensemble in the
// requested metric order names the error, at any training budget.
func TestTrainPredictorStacksEveryEnsemble(t *testing.T) {
	trainRecs, valRecs := workspaceSplit(t, 60)
	cfg := DefaultTrainConfig(3)
	cfg.Epochs, cfg.Patience, cfg.Hidden = 1, 0, 8
	metrics := []Metric{MetricSuccess, MetricE2ELatency, MetricThroughput}
	for _, budget := range []int{1, 4} {
		atTrainBudget(budget, func() {
			pr, err := trainPredictorFromRecords(trainRecs, valRecs, PredictorConfig{Train: cfg, EnsembleSize: 2, Metrics: metrics})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range pr.ensembles() {
				if e.stack == nil || e.stack.sm == nil {
					t.Errorf("budget %d: the %v ensemble was not stacked in training", budget, e.Metric)
				}
			}
			trad := cfg
			trad.Traditional = true
			_, err = trainPredictorFromRecords(trainRecs, valRecs, PredictorConfig{Train: trad, EnsembleSize: 2, Metrics: metrics})
			const want = "core: training success: core: success ensemble cannot run the packed kernel"
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("budget %d: traditional message passing: error %v, want one starting %q", budget, err, want)
			}
		})
	}
}
