package placement

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// validatedNeighbors is the full-validation oracle of generator.neighbors:
// it tries every move and every swap of p and keeps those that
// generator.validate accepts, in the same order.
func validatedNeighbors(g *generator, p sim.Placement) []neighbor {
	tmp := append(sim.Placement(nil), p...)
	var out []neighbor
	for v := range tmp {
		old := tmp[v]
		for h := 0; h < g.nHosts; h++ {
			if h == old {
				continue
			}
			tmp[v] = h
			if g.validate(tmp) {
				out = append(out, neighbor{v: v, x: h})
			}
		}
		tmp[v] = old
	}
	for v := range tmp {
		for w := v + 1; w < len(tmp); w++ {
			if tmp[v] == tmp[w] {
				continue
			}
			tmp[v], tmp[w] = tmp[w], tmp[v]
			if g.validate(tmp) {
				out = append(out, neighbor{v: v, x: w, swap: true})
			}
			tmp[v], tmp[w] = tmp[w], tmp[v]
		}
	}
	return out
}

// randomDAG is a query graph of n operators with random forward edges,
// fan-out included, which no valid query has but the rule must still
// handle. Operators carry no attributes: the generator reads only edges.
func randomDAG(rng *rand.Rand, n int) *stream.Query {
	q := &stream.Query{Ops: make([]*stream.Operator, n)}
	for v := 1; v < n; v++ {
		q.Edges = append(q.Edges, [2]int{rng.Intn(v), v})
		for u := 0; u < v; u++ {
			if rng.Intn(4) == 0 && u != q.Edges[len(q.Edges)-1][0] {
				q.Edges = append(q.Edges, [2]int{u, v})
			}
		}
	}
	return q
}

// TestNeighborsMatchFullValidation checks the move rule against the
// oracle: for queries of every class and random DAGs, clusters of 3 to 220
// hosts drawn from both hardware grids, 0 to 3 banned hosts and three
// kinds of valid base (a random draw, the same draw walked a few random
// steps, and the greedy completion), the neighbourhood equals, step for
// step, the one full validation of every move and swap finds.
func TestNeighborsMatchFullValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	wg := workload.New(workload.DefaultConfig(35))
	grids := []hardware.Grid{hardware.TrainingGrid(), hardware.InterpolationGrid()}
	cases, moves, swaps := 0, 0, 0
	check := func(name string, q *stream.Query, c *hardware.Cluster) {
		topo, err := q.Topology()
		if err != nil {
			t.Fatal(err)
		}
		g := newGenerator(q, topo, checked(c))
		g.ban(rng.Perm(len(c.Hosts))[:rng.Intn(4)])
		var bases []sim.Placement
		if p, ok := g.randomValid(rng); ok {
			bases = append(bases, append(sim.Placement(nil), p...))
			walk := append(sim.Placement(nil), p...)
			for step := 0; step < 3; step++ {
				steps := g.neighbors(walk)
				if len(steps) == 0 {
					break
				}
				s := steps[rng.Intn(len(steps))]
				if s.swap {
					walk[s.v], walk[s.x] = walk[s.x], walk[s.v]
				} else {
					walk[s.v] = s.x
				}
			}
			bases = append(bases, walk)
		}
		blank := make(sim.Placement, q.NumOps())
		for i := range blank {
			blank[i] = -1
		}
		if p, ok := g.completeGreedy(blank, 0); ok {
			bases = append(bases, p)
		}
		for _, p := range bases {
			if !g.validate(p) {
				t.Fatalf("%s on %d hosts: base %v is not valid", name, len(c.Hosts), p)
			}
			want := validatedNeighbors(g, p)
			got := slices.Clone(g.neighbors(p))
			if !slices.Equal(got, want) {
				t.Fatalf("%s on %d hosts, banned %v, base %v:\nderived   %v\nvalidated %v",
					name, len(c.Hosts), g.banned, p, got, want)
			}
			cases++
			for _, s := range got {
				if s.swap {
					swaps++
				} else {
					moves++
				}
			}
		}
	}
	for _, hosts := range []int{3, 4, 5, 8, 14, 30, 220} {
		for rep := 0; rep < 8; rep++ {
			for class := stream.ClassLinear; class <= stream.ClassThreeWayJoinAgg; class++ {
				check(class.String(), wg.QueryOfClass(class).Query(), grids[rep%2].SampleCluster(rng, hosts))
			}
			q := randomDAG(rng, 4+rng.Intn(6))
			check(fmt.Sprintf("DAG %v", q.Edges), q, grids[rep%2].SampleCluster(rng, hosts))
		}
	}
	if cases < 900 || moves < 10*cases || swaps == 0 {
		t.Fatalf("%d cases with %d moves and %d swaps: the generated inputs no longer exercise the rule", cases, moves, swaps)
	}
}

// TestLocalSearchScoresStartWithItsNeighborhood: a warm-started climb
// scores the incumbent in the same round as the incumbent's neighborhood,
// ahead of it, so the first round's fresh candidates are one more than the
// neighborhood and a one-round budget covers exactly those.
func TestLocalSearchScoresStartWithItsNeighborhood(t *testing.T) {
	q, c := testQuery(), checked(cluster12())
	inc, err := RandomValid(rand.New(rand.NewSource(4)), analyzed(q), c)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(q, analyzed(q).Topo, c)
	size := min(len(g.neighbors(inc)), localNeighborCap)
	if size < 4 {
		t.Fatalf("incumbent %v has %d neighbors: the test needs more", inc, size)
	}
	strat := WarmStart{Incumbent: inc, Inner: LocalSearch{}}
	res, err := Search(context.Background(), landscapePredictor{}, analyzed(q), c, strat, MinProcLatency,
		Budget{MaxCandidates: 256}, SearchOptions{Seed: 5, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if first := res.Telemetry[0]; first.Fresh != 1+size || first.Submitted != 1+size {
		t.Fatalf("first round %+v, want %d fresh: the incumbent and its %d neighbors", first, 1+size, size)
	}
	one, err := Search(context.Background(), landscapePredictor{}, analyzed(q), c, strat, MinProcLatency,
		Budget{MaxCandidates: 256, MaxRounds: 1}, SearchOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if one.Rounds != 1 || one.Examined != 1+size {
		t.Fatalf("one-round search: %d rounds, %d examined, want 1 and %d", one.Rounds, one.Examined, 1+size)
	}
}

// BenchmarkLocalNeighbors times one neighborhood of a 3-way join's greedy
// completion, built as LocalSearch builds it, on a 6-, a 220- and an
// 11 000-host cluster.
func BenchmarkLocalNeighbors(b *testing.B) {
	q := workload.New(workload.DefaultConfig(3)).QueryOfClass(stream.ClassThreeWayJoinAgg).Query()
	for _, hosts := range []int{6, 220, 11_000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			c := checked(hardware.TrainingGrid().SampleCluster(rand.New(rand.NewSource(int64(hosts))), hosts))
			co := newCore(context.Background(), landscapePredictor{}, analyzed(q), c, MinProcLatency, Budget{}, SearchOptions{Seed: 1})
			blank := make(sim.Placement, q.NumOps())
			for i := range blank {
				blank[i] = -1
			}
			start, ok := co.CompleteGreedy(blank, 0)
			if !ok {
				b.Fatal("no greedy start")
			}
			dst := make([]sim.Placement, 0, localNeighborCap)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = localNeighbors(co, start, dst[:0])
			}
			if len(dst) == 0 {
				b.Fatal("empty neighborhood")
			}
		})
	}
}
