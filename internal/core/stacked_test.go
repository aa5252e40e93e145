package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// randomEnsemble builds an untrained ensemble straight from seeded GNNs —
// the stacked-path tests need real weights and real featurization, not a
// trained model, so they skip the minutes of fitting.
func randomEnsemble(t testing.TB, metric Metric, k int, traditional bool) *Ensemble {
	return seededEnsemble(t, metric, k, traditional, 500)
}

// seededEnsemble is randomEnsemble with member i's network seeded seed+i.
func seededEnsemble(t testing.TB, metric Metric, k int, traditional bool, seed int64) *Ensemble {
	t.Helper()
	feat := Featurizer{}
	gcfg := gnn.DefaultConfig(feat.FeatDims())
	gcfg.Hidden = 16
	gcfg.Traditional = traditional
	models := make([]*CostModel, k)
	for i := range models {
		net, err := gnn.New(gcfg, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		models[i] = &CostModel{Metric: metric, Feat: feat, Net: net}
	}
	return &Ensemble{Metric: metric, Models: models}
}

// perMemberValue is the ensemble mean member by member: each featurizes
// and infers on its own inference tape. The stacked path must reproduce
// it bit for bit.
func perMemberValue(t *testing.T, e *Ensemble, q *stream.Query, c *hardware.Cluster, p sim.Placement) float64 {
	t.Helper()
	var sum float64
	for _, m := range e.Models {
		v, err := m.PredictRaw(analyzed(q), c, p)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	return sum / float64(len(e.Models))
}

func perMemberLabel(t *testing.T, e *Ensemble, q *stream.Query, c *hardware.Cluster, p sim.Placement) bool {
	t.Helper()
	votes := 0
	for _, m := range e.Models {
		prob, err := m.PredictRaw(analyzed(q), c, p)
		if err != nil {
			t.Fatal(err)
		}
		if prob > 0.5 {
			votes++
		}
	}
	return votes*2 > len(e.Models)
}

// TestStackedPredictValueMatchesPerMember pins the stacked ensemble path
// to the historical per-member path: bit-identical means over a slice of
// real corpus traces, one PredictOne on the ensemble alone each.
func TestStackedPredictValueMatchesPerMember(t *testing.T) {
	c := testCorpus(t)
	e := randomEnsemble(t, MetricThroughput, 3, false)
	scored := ensembleCandidates(MetricThroughput)
	for i, tr := range c.Traces[:40] {
		want := perMemberValue(t, e, tr.Query, tr.Cluster, tr.Placement)
		got, err := placement.PredictOne(e.Predictor(), analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if got.ThroughputTPS != want {
			t.Fatalf("trace %d: stacked %v != per-member %v", i, got.ThroughputTPS, want)
		}
	}
	if n := ensembleCandidates(MetricThroughput) - scored; n != 40 {
		t.Fatalf("%d candidates on the packed kernel, want 40", n)
	}
}

// ensembleCandidates reads how many candidates the metric's ensembles
// scored on the packed kernel so far
// (costream_inference_ensemble_candidates_total).
func ensembleCandidates(m Metric) int64 {
	return inferMet().ensembleCands[m].Value()
}

// TestStackedPredictLabelMatchesPerMember does the same for a binary
// metric's majority vote.
func TestStackedPredictLabelMatchesPerMember(t *testing.T) {
	c := testCorpus(t)
	e := randomEnsemble(t, MetricSuccess, 3, false)
	for i, tr := range c.Traces[:40] {
		want := perMemberLabel(t, e, tr.Query, tr.Cluster, tr.Placement)
		costs, err := placement.PredictOne(e.Predictor(), analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if got := costs.Success; got != want {
			t.Fatalf("trace %d: stacked %v != per-member %v", i, got, want)
		}
	}
}

// TestUnstackableEnsembleRefused: the packed kernel is an ensemble's only
// inference path, so an ensemble whose members cannot stack — the Exp 7b
// ablation's traditional message passing, an Exp 7a style mix of
// featurization modes, mismatched widths — is refused with an error that
// names the metric and the reason: by NewScoreSession, by every
// prediction through it, and when saved. Its members still predict one
// by one on the inference tape, as Exp 7's single models do.
func TestUnstackableEnsembleRefused(t *testing.T) {
	tr := testCorpus(t).Traces[0]
	wide := randomEnsemble(t, MetricSuccess, 2, false)
	gcfg := gnn.DefaultConfig(wide.Models[1].Feat.FeatDims())
	gcfg.Hidden = 24
	var err error
	if wide.Models[1].Net, err = gnn.New(gcfg, 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		e      *Ensemble
		reason string
	}{
		{randomEnsemble(t, MetricProcLatency, 2, true), "traditional message passing"},
		{mixModes(randomEnsemble(t, MetricThroughput, 3, false)), "member 1 is featurized placement-only, member 0 full"},
		{wide, "different architecture"},
	} {
		e := tc.e
		want := e.Metric.String() + " ensemble cannot run the packed kernel"
		refused := func(what string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("%v %s: err = %v, want %q and %q", e.Metric, what, err, want, tc.reason)
			}
		}
		pr := e.Predictor()
		_, err = pr.NewScoreSession(analyzed(tr.Query), checked(tr.Cluster))
		refused("NewScoreSession", err)
		_, err = placement.PredictOne(pr, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
		refused("PredictOne", err)
		_, err = pr.Sections()
		refused("save", err)
		for i, m := range e.Models {
			if _, err := m.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement); err != nil {
				t.Fatalf("%v member %d on the tape: %v", e.Metric, i, err)
			}
		}
	}

	// Two ensembles that stack but are featurized in different modes: a
	// session featurizes and packs each tile once, so session open, save
	// and load refuse the predictor, naming both metrics.
	placementOnly := randomEnsemble(t, MetricProcLatency, 2, false)
	for _, m := range placementOnly.Models {
		m.Feat.Mode = FeatPlacementOnly
	}
	full := randomEnsemble(t, MetricThroughput, 2, false)
	mixed := predictorOf(full, placementOnly)
	want := "proc-latency ensemble is featurized placement-only, throughput ensemble full"
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("mixed-mode predictor, %s: err = %v, want %q", what, err, want)
		}
	}
	_, err = mixed.NewScoreSession(analyzed(tr.Query), checked(tr.Cluster))
	refused("NewScoreSession", err)
	_, err = mixed.Sections()
	refused("save", err)
	fullSecs, fullBody := encodeWeights(t, full.Predictor())
	poSecs, poBody := encodeWeights(t, placementOnly.Predictor())
	_, err = DecodePredictor(append(fullSecs, poSecs...), append(fullBody, poBody...))
	refused("load", err)
}

// TestPredictBatchStackedMatchesPerMember pins the batched scoring path —
// the serve and search hot path — to the per-member reference.
func TestPredictBatchStackedMatchesPerMember(t *testing.T) {
	c := testCorpus(t)
	pr := predictorOf(
		randomEnsemble(t, MetricThroughput, 3, false),
		randomEnsemble(t, MetricSuccess, 3, false),
	)
	tr := c.Traces[0]
	cands := []sim.Placement{tr.Placement, tr.Placement, tr.Placement}
	out, errs := placement.Score(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), cands, placement.AllCosts)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, p := range cands {
		if want := perMemberValue(t, pr[MetricThroughput], tr.Query, tr.Cluster, p); out[i].ThroughputTPS != want {
			t.Fatalf("candidate %d: batch throughput %v != per-member %v", i, out[i].ThroughputTPS, want)
		}
		if want := perMemberLabel(t, pr[MetricSuccess], tr.Query, tr.Cluster, p); out[i].Success != want {
			t.Fatalf("candidate %d: batch success %v != per-member %v", i, out[i].Success, want)
		}
	}
}

// TestPredictValueAllocsHoisted asserts that featurization happens once
// per prediction of an ensemble, not once per member, so allocations
// barely grow with the ensemble size.
func TestPredictValueAllocsHoisted(t *testing.T) {
	c := testCorpus(t)
	tr := c.Traces[0]
	a, k := analyzed(tr.Query), checked(tr.Cluster)
	measure := func(e *Ensemble) float64 {
		pr := e.Predictor()
		if _, err := placement.PredictOne(pr, a, k, tr.Placement); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := placement.PredictOne(pr, a, k, tr.Placement); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1 := measure(randomEnsemble(t, MetricThroughput, 1, false))
	a3 := measure(randomEnsemble(t, MetricThroughput, 3, false))
	// Per-member featurization would roughly triple the allocations; the
	// hoisted path shares one graph + plan across members (the stacked
	// kernels themselves are allocation-free steady state).
	if a3 > a1*1.3+4 {
		t.Fatalf("PredictOne allocs grew from %v (k=1) to %v (k=3); featurization not hoisted", a1, a3)
	}
}

// TestSinglePredictAllocsIgnoreClusterSize pins the lazy host
// featurization that makes a tile of one affordable: one PredictOne
// allocates the same number of objects on a 6-host and on a 220-host
// cluster for the same placement — only the hosts a placement uses are
// featurized — and stays within budget (the per-graph engine it replaced
// took 674).
func TestSinglePredictAllocsIgnoreClusterSize(t *testing.T) {
	pr := randomPredictor(t, 3)
	a := analyzed(featQuery(t))
	small := &hardware.Cluster{}
	big := &hardware.Cluster{}
	for h := 0; h < 220; h++ {
		host := *featCluster().Hosts[h%2]
		host.ID = fmt.Sprintf("%s-%d", host.ID, h)
		big.Hosts = append(big.Hosts, &host)
		if h < 6 {
			small.Hosts = append(small.Hosts, &host)
		}
	}
	p := sim.Placement{0, 1, 2, 3, 4, 5}
	// The steady state is a call that finds its tile scratch in the pool;
	// the race detector makes sync.Pool drop items at random, so take the
	// cheapest of many single calls instead of an average.
	measure := func(c *hardware.Cluster) float64 {
		k := checked(c)
		best := math.Inf(1)
		for i := 0; i < 30; i++ {
			best = min(best, testing.AllocsPerRun(1, func() {
				if _, err := placement.PredictOne(pr, a, k, p); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return best
	}
	aSmall, aBig := measure(small), measure(big)
	if aSmall != aBig {
		t.Fatalf("PredictOne allocates %v objects on 6 hosts but %v on 220", aSmall, aBig)
	}
	if aBig > 160 {
		t.Fatalf("PredictOne allocates %v objects per call, budget 160", aBig)
	}
}

// TestSessionCandidateAllocsMatchBareCalls: a session that scores one
// candidate per call through the PredictorFunc adapter does no work per
// candidate beyond the call it wraps. Per candidate, a SimOracle session
// allocates what a bare sim.Run on the session's analysis allocates, and
// a single CostModel's tape session (the Exp 4 and Exp 7 scoring path)
// what a bare PredictRaw does: neither analyses the fixed query again.
func TestSessionCandidateAllocsMatchBareCalls(t *testing.T) {
	simCfg := sim.DefaultConfig()
	simCfg.DurationS, simCfg.WarmupS = 30, 5
	oracle := &placement.SimOracle{Cfg: simCfg}
	cm := randomEnsemble(t, MetricProcLatency, 1, false).Models[0]
	// The cheapest of several single calls: the inference tape comes from
	// a sync.Pool, which drops items at random under -race.
	cheapest := func(f func() error) float64 {
		best := math.Inf(1)
		for i := 0; i < 10; i++ {
			best = min(best, testing.AllocsPerRun(1, func() {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return best
	}
	for i, tr := range testCorpus(t).Traces[:20] {
		a, k := analyzed(tr.Query), checked(tr.Cluster)
		cand := []sim.Placement{tr.Placement}
		var out [1]placement.PredCosts
		for _, tc := range []struct {
			name string
			pred placement.Predictor
			bare func() error
		}{
			{"SimOracle", oracle, func() error { _, err := sim.Run(a, k, tr.Placement, simCfg); return err }},
			{"CostModel", cm, func() error { _, err := cm.PredictRaw(a, tr.Cluster, tr.Placement); return err }},
		} {
			sess, err := tc.pred.NewScoreSession(a, k)
			if err != nil {
				t.Fatal(err)
			}
			perCand := cheapest(func() error { return sess.ScoreTile(cand, placement.AllCosts, out[:]) })
			if bare := cheapest(tc.bare); perCand != bare {
				t.Fatalf("trace %d: a %s session allocates %v objects per candidate, a bare call %v", i, tc.name, perCand, bare)
			}
		}
	}
}

// TestStackedConcurrentPredict exercises the shared weight stack, the
// pooled per-worker scratches and the pooled inference tapes of single
// models from concurrent search/serve-style workers; run under -race in
// the CI race matrix.
func TestStackedConcurrentPredict(t *testing.T) {
	c := testCorpus(t)
	pr := predictorOf(
		randomEnsemble(t, MetricThroughput, 3, false),
		randomEnsemble(t, MetricSuccess, 3, false),
	)
	thr, succ := pr[MetricThroughput].Predictor(), pr[MetricSuccess].Predictor()
	tr := c.Traces[0]
	cands := []sim.Placement{tr.Placement, tr.Placement, tr.Placement}
	want, err := placement.PredictOne(thr, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	member := pr[MetricThroughput].Models[0]
	wantRaw, err := member.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
	if err != nil {
		t.Fatal(err)
	}
	scored := ensembleCandidates(MetricThroughput)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for wkr := 0; wkr < 8; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for iter := 0; iter < 15; iter++ {
				switch wkr % 4 {
				case 0:
					got, err := placement.PredictOne(thr, analyzed(tr.Query), checked(tr.Cluster), tr.Placement)
					if err == nil && got != want {
						err = fmt.Errorf("concurrent PredictOne diverged: got %+v want %+v", got, want)
					}
					if err != nil {
						errs[wkr] = err
						return
					}
				case 1:
					_, scoreErrs := placement.Score(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), cands, placement.AllCosts)
					if err := errors.Join(scoreErrs...); err != nil {
						errs[wkr] = err
						return
					}
				case 2:
					if _, err := placement.PredictOne(succ, analyzed(tr.Query), checked(tr.Cluster), tr.Placement); err != nil {
						errs[wkr] = err
						return
					}
				default:
					got, err := member.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
					if err == nil && got != wantRaw {
						err = fmt.Errorf("concurrent PredictRaw diverged: got %v want %v", got, wantRaw)
					}
					if err != nil {
						errs[wkr] = err
						return
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if ensembleCandidates(MetricThroughput) == scored {
		t.Fatal("no candidate scored on the packed kernel")
	}
}
