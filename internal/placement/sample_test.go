package placement

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// TestPermPrefixMatchesPerm: the prefix holds the indices rand.Perm(n)
// starts with, and the rng is left in Perm's state, below, at and above
// the neighbourhood cap and far above it.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 10_000, 54_321} {
		for seed := int64(1); seed <= 3; seed++ {
			ref, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := ref.Perm(n)[:min(n, localNeighborCap)]
			var buf [localNeighborCap]int
			prefix := permPrefix(got, n, buf[:])
			if !slices.Equal(prefix, want) {
				t.Fatalf("n=%d seed %d: prefix %v, want %v", n, seed, prefix, want)
			}
			if a, b := ref.Int63(), got.Int63(); a != b {
				t.Fatalf("n=%d seed %d: next draw %d after the prefix, %d after Perm", n, seed, b, a)
			}
		}
	}
}

// TestWarmNeighborhoodAllocsFlat: a local search's neighbourhood, once
// its scratch is warm, allocates as often on 11 000 hosts as on 6: the
// step buffer is reused and the kept steps are drawn without a
// permutation of every step.
func TestWarmNeighborhoodAllocsFlat(t *testing.T) {
	q := workload.New(workload.DefaultConfig(3)).QueryOfClass(stream.ClassThreeWayJoinAgg).Query()
	allocs := map[int]float64{}
	for _, hosts := range []int{6, 11_000} {
		c := checked(hardware.TrainingGrid().SampleCluster(rand.New(rand.NewSource(int64(hosts))), hosts))
		co := newCore(context.Background(), landscapePredictor{}, analyzed(q), c, MinProcLatency, Budget{}, SearchOptions{Seed: 1})
		blank := make(sim.Placement, q.NumOps())
		for i := range blank {
			blank[i] = -1
		}
		start, ok := co.CompleteGreedy(blank, 0)
		if !ok {
			t.Fatalf("%d hosts: no greedy start", hosts)
		}
		dst := localNeighbors(co, start, nil)
		if steps := len(*co.gen.steps); hosts > 6 && steps < 100*localNeighborCap {
			t.Fatalf("%d hosts: %d steps, too few to exercise the subsample", hosts, steps)
		}
		allocs[hosts] = testing.AllocsPerRun(5, func() { dst = localNeighbors(co, start, dst[:0]) })
		co.gen.release()
	}
	if allocs[11_000] > allocs[6] {
		t.Fatalf("a warm neighbourhood allocates %v times on 11 000 hosts and %v on 6", allocs[11_000], allocs[6])
	}
	t.Logf("allocs per warm neighbourhood: %v", allocs)
}
