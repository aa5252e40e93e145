package flatvec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"costream/internal/core"
	"costream/internal/gbdt"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
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

// enumerate draws up to k distinct valid placements from rng, as
// placement.RandomSample does for a budget of k: duplicate and dead-end
// draws share a miss budget of 8k+64.
func enumerate(rng *rand.Rand, q *stream.Query, c *hardware.Cluster, k int) []sim.Placement {
	var out []sim.Placement
	seen := map[string]bool{}
	for misses := 0; len(out) < k && misses < 8*k+64; {
		p, err := placement.RandomValid(rng, analyzed(q), checked(c))
		if err != nil || seen[fmt.Sprint(p)] {
			misses++
			continue
		}
		seen[fmt.Sprint(p)] = true
		out = append(out, p)
	}
	return out
}

// TestPredictBatchMatchesPredictPlacement is the session's oracle: for
// every non-empty CostSet and tile widths 1, 7 and all, ScoreTile sets
// exactly the fields need names, bit for bit the per-metric
// Model.PredictRaw path's (which featurizes the whole vector per model),
// and leaves the others as the caller left them.
func TestPredictBatchMatchesPredictPlacement(t *testing.T) {
	c := testCorpus(t)
	train, _, _ := c.Split(0.9, 0, 19)
	pr, err := TrainPredictor(train, gbdt.DefaultConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for ti, tr := range c.Traces[:6] {
		cands := enumerate(rng, tr.Query, tr.Cluster, 10)
		if len(cands) == 0 {
			t.Fatalf("trace %d: no candidates", ti)
		}
		want := make([]placement.PredCosts, len(cands))
		for i, p := range cands {
			want[i] = perMetric(t, pr, tr.Query, tr.Cluster, p)
		}
		sess, err := pr.NewScoreSession(analyzed(tr.Query), checked(tr.Cluster))
		if err != nil {
			t.Fatal(err)
		}
		for need := placement.CostSet(1); need <= placement.AllCosts; need++ {
			for _, tile := range []int{1, 7, len(cands)} {
				got := make([]placement.PredCosts, len(cands))
				expect := make([]placement.PredCosts, len(cands))
				for i := range cands {
					got[i] = placement.PredCosts{ThroughputTPS: -1, ProcLatencyMS: -2, E2ELatencyMS: -3,
						Success: !want[i].Success, Backpressured: !want[i].Backpressured}
					expect[i] = got[i]
					need.Copy(&expect[i], want[i])
				}
				for lo := 0; lo < len(cands); lo += tile {
					hi := min(lo+tile, len(cands))
					if err := sess.ScoreTile(cands[lo:hi], need, got[lo:hi]); err != nil {
						t.Fatalf("trace %d need=%05b tile=%d: %v", ti, need, tile, err)
					}
				}
				for i := range cands {
					if costBits(got[i]) != costBits(expect[i]) {
						t.Fatalf("trace %d need=%05b tile=%d candidate %d: %+v, want %+v", ti, need, tile, i, got[i], expect[i])
					}
				}
			}
		}
	}
}

// perMetric predicts the five costs one metric model at a time, each
// featurizing the whole vector itself: the reference a session must match.
func perMetric(t *testing.T, pr *Predictor, q *stream.Query, c *hardware.Cluster, p sim.Placement) placement.PredCosts {
	t.Helper()
	raw := func(m *Model) float64 {
		v, err := m.PredictRaw(analyzed(q), c, p)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	return placement.PredCosts{
		ThroughputTPS: raw(pr[core.MetricThroughput]),
		ProcLatencyMS: raw(pr[core.MetricProcLatency]),
		E2ELatencyMS:  raw(pr[core.MetricE2ELatency]),
		Backpressured: raw(pr[core.MetricBackpressure]) > 0.5,
		Success:       raw(pr[core.MetricSuccess]) > 0.5,
	}
}

// TestUntrainedSlotsGiveDefaults: a predictor holding only the throughput
// model, asked for every cost, predicts throughput as the model does and
// gives the other four costs the untrained default (Success true,
// everything else zero), as the TileScorer contract says.
func TestUntrainedSlotsGiveDefaults(t *testing.T) {
	c := testCorpus(t)
	m, err := Train(c, core.MetricThroughput, gbdt.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	pr := m.Predictor()
	for ti, tr := range c.Traces[:5] {
		raw, err := m.PredictRaw(analyzed(tr.Query), tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := pr.NewScoreSession(analyzed(tr.Query), checked(tr.Cluster))
		if err != nil {
			t.Fatal(err)
		}
		out := []placement.PredCosts{{ProcLatencyMS: -2, E2ELatencyMS: -3, Backpressured: true}}
		if err := sess.ScoreTile([]sim.Placement{tr.Placement}, placement.AllCosts, out); err != nil {
			t.Fatalf("trace %d: %v", ti, err)
		}
		if want := (placement.PredCosts{ThroughputTPS: raw, Success: true}); costBits(out[0]) != costBits(want) {
			t.Fatalf("trace %d: %+v, want %+v", ti, out[0], want)
		}
	}
}

// costBits is a cost vector as bits, so comparisons are bit for bit.
func costBits(pc placement.PredCosts) [5]uint64 {
	b := [5]uint64{math.Float64bits(pc.ThroughputTPS), math.Float64bits(pc.ProcLatencyMS), math.Float64bits(pc.E2ELatencyMS)}
	if pc.Backpressured {
		b[3] = 1
	}
	if pc.Success {
		b[4] = 1
	}
	return b
}

// TestFeaturizeSplitConsistency: on every trace of the corpus, queries of
// every class, the query prefix has exactly queryDim entries, and the
// query-prefix / placement-suffix split reassembles into exactly the
// documented Dim entries with the prefix unchanged.
func TestFeaturizeSplitConsistency(t *testing.T) {
	for k, tr := range testCorpus(t).Traces {
		a := analyzed(tr.Query)
		prefix := queryFeatures(a)
		if len(prefix) != queryDim {
			t.Fatalf("trace %d: prefix dim %d, want %d", k, len(prefix), queryDim)
		}
		full, err := Featurize(a, tr.Cluster, tr.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) != Dim {
			t.Fatalf("trace %d: full dim %d, want %d", k, len(full), Dim)
		}
		for i := range prefix {
			if full[i] != prefix[i] {
				t.Errorf("trace %d entry %d: full %v != prefix %v", k, i, full[i], prefix[i])
			}
		}
	}
}
