package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"costream/internal/gnn"
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

// trainedFullPredictor trains a small full predictor once for the batch
// equivalence tests.
func trainedFullPredictor(t *testing.T) *Predictor {
	t.Helper()
	c := testCorpus(t)
	train, val, _ := c.Split(0.8, 0.1, 21)
	cfg := PredictorConfig{Train: fastTrainConfig(31), EnsembleSize: 2}
	cfg.Train.Epochs = 3
	pr, err := TrainPredictor(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// mixModes gives the ensemble's members different featurization modes
// (an Exp 7a style mix), which rules out a shared weight stack.
func mixModes(e *Ensemble) *Ensemble {
	for i, m := range e.Models {
		m.Feat.Mode = []FeatureMode{FeatFull, FeatPlacementOnly, FeatQueryOnly}[i%3]
	}
	return e
}

// TestPredictBatchMatchesPredictPlacement is the single-predict contract:
// placement.PredictOne, on the predictor and on each ensemble alone, is a
// tile of one on the same engine as placement.Score over a batch, so
// they must equal the matching batch row bit for bit — for a trained
// predictor, for an untrained one with every metric seeded apart and for
// a predictor with only two of the five metrics. Every ensemble is also
// held to the per-member reference (each member featurizing and inferring
// on its own inference tape), so the two sides cannot agree on a wrong
// answer.
func TestPredictBatchMatchesPredictPlacement(t *testing.T) {
	predictors := []struct {
		name string
		pr   *Predictor
	}{
		{"trained", trainedFullPredictor(t)},
		{"distinct seeds", distinctPredictor(t, 3)},
		{"two metrics", predictorOf(
			randomEnsemble(t, MetricProcLatency, 3, false),
			randomEnsemble(t, MetricSuccess, 3, false),
		)},
	}
	c := testCorpus(t)
	for _, tc := range predictors {
		pr := tc.pr
		// Collect (query, cluster) pairs and several candidates each by
		// re-drawing placements from the corpus generator's own clusters.
		rng := rand.New(rand.NewSource(77))
		for ti, tr := range c.Traces[:8] {
			cands := enumerate(rng, tr.Query, tr.Cluster, 12)
			if len(cands) == 0 {
				t.Fatalf("trace %d: no candidates", ti)
			}
			batch, errs := placement.Score(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), cands, placement.AllCosts)
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("%s, trace %d: %v", tc.name, ti, err)
			}
			for i, p := range cands {
				single, err := placement.PredictOne(pr, analyzed(tr.Query), checked(tr.Cluster), p)
				if err != nil {
					t.Fatalf("%s, trace %d candidate %d: %v", tc.name, ti, i, err)
				}
				if batch[i] != single {
					t.Errorf("%s, trace %d candidate %d: batch %+v != single %+v", tc.name, ti, i, batch[i], single)
				}
				for _, e := range pr.ensembles() {
					row := costField(batch[i], e.Metric)
					alone, err := placement.PredictOne(e.Predictor(), analyzed(tr.Query), checked(tr.Cluster), p)
					if err != nil {
						t.Fatalf("%s, trace %d candidate %d: %v: %v", tc.name, ti, i, e.Metric, err)
					}
					one := costField(alone, e.Metric)
					var ref float64
					if e.Metric.IsRegression() {
						ref = perMemberValue(t, e, tr.Query, tr.Cluster, p)
					} else {
						ref = asFloat[perMemberLabel(t, e, tr.Query, tr.Cluster, p)]
					}
					if one != row {
						t.Errorf("%s, trace %d candidate %d: %v single %v != batch row %v", tc.name, ti, i, e.Metric, one, row)
					}
					if row != ref {
						t.Errorf("%s, trace %d candidate %d: %v batch row %v != per-member reference %v", tc.name, ti, i, e.Metric, row, ref)
					}
				}
			}
		}
	}
}

var asFloat = map[bool]float64{false: 0, true: 1}

// costField reads one metric out of a cost vector, labels as 0 or 1.
func costField(costs placement.PredCosts, metric Metric) float64 {
	v, l := metric.Field(&costs)
	if v != nil {
		return *v
	}
	return asFloat[*l]
}

// predictorOf puts each ensemble in its metric's slot.
func predictorOf(es ...*Ensemble) *Predictor {
	var pr Predictor
	for _, e := range es {
		pr[e.Metric] = e
	}
	return &pr
}

// TestBatchFeaturizerMatchesBuildGraph checks what a tile is packed from
// against the graph BuildGraph builds: the shared operator graph is its
// operator prefix and flow edges, and hostFeatures(h) is the feature
// vector of host h's node, for every host a placement uses.
func TestBatchFeaturizerMatchesBuildGraph(t *testing.T) {
	c := testCorpus(t)
	rng := rand.New(rand.NewSource(78))
	for _, mode := range []FeatureMode{FeatFull, FeatPlacementOnly, FeatQueryOnly} {
		f := Featurizer{Mode: mode}
		tr := c.Traces[3]
		bf, err := f.NewBatch(analyzed(tr.Query), tr.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		nOps := len(bf.ops.Nodes)
		for _, p := range enumerate(rng, tr.Query, tr.Cluster, 6) {
			want, _, err := f.BuildGraph(analyzed(tr.Query), tr.Cluster, p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(bf.ops.FlowEdges, want.FlowEdges) {
				t.Fatalf("mode %v: flow edges %v, want %v", mode, bf.ops.FlowEdges, want.FlowEdges)
			}
			// The host of each host node: its first placement edge's operator's host.
			nodes := slices.Clone(bf.ops.Nodes)
			for _, e := range want.PlaceEdges {
				if e[1] == len(nodes) {
					nodes = append(nodes, gnn.Node{Kind: gnn.KindHost, Feat: bf.hostFeatures(p[e[0]])})
				}
			}
			if len(nodes) != len(want.Nodes) {
				t.Fatalf("mode %v: %d operators and %d hosts, want %d nodes", mode, nOps, len(nodes)-nOps, len(want.Nodes))
			}
			for i, nd := range want.Nodes {
				if nodes[i].Kind != nd.Kind || !slices.Equal(nodes[i].Feat, nd.Feat) {
					t.Fatalf("mode %v node %d: %v %v, want %v %v", mode, i, nodes[i].Kind, nodes[i].Feat, nd.Kind, nd.Feat)
				}
			}
		}
	}
}

// TestPredictBatchRejectsInvalidCandidate: an invalid placement in a
// batch is that candidate's error, and its batch-mate still scores.
func TestPredictBatchRejectsInvalidCandidate(t *testing.T) {
	pr := trainedFullPredictor(t)
	c := testCorpus(t)
	tr := c.Traces[0]
	bad := make(sim.Placement, len(tr.Placement))
	for i := range bad {
		bad[i] = len(tr.Cluster.Hosts) + 5 // out of range
	}
	_, errs := placement.Score(context.Background(), pr, analyzed(tr.Query), checked(tr.Cluster), []sim.Placement{tr.Placement, bad}, placement.AllCosts)
	if errs[0] != nil || errs[1] == nil {
		t.Fatalf("valid candidate: %v, invalid candidate: %v", errs[0], errs[1])
	}
}

// TestHostFeaturesOneArrayPerHost: goroutines that first touch a host
// together all get equal feature vectors, equal to BuildGraph's. Run
// under -race in CI: first use is a plain atomic load and store.
func TestHostFeaturesOneArrayPerHost(t *testing.T) {
	tr := testCorpus(t).Traces[0]
	f := Featurizer{Mode: FeatFull}
	for round := 0; round < 20; round++ {
		bf, err := f.NewBatch(analyzed(tr.Query), tr.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		got := make([][][]float64, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for h := range tr.Cluster.Hosts {
					got[w] = append(got[w], bf.hostFeatures(h))
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for h, host := range tr.Cluster.Hosts {
			want := f.hostFeatures(nil, host)
			for w := range got {
				if !slices.Equal(got[w][h], want) {
					t.Fatalf("round %d, worker %d: host %d features %v, want %v", round, w, h, got[w][h], want)
				}
			}
		}
	}
}
