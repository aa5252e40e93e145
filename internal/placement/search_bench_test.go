package placement

import (
	"fmt"
	"math/rand"
	"testing"

	"costream/internal/sim"
)

// BenchmarkCandIndex compares the search's dedup index, a hash of the
// placement checked against the kept placement, with a map keyed by the
// fmt.Sprint rendering of each placement.
func BenchmarkCandIndex(b *testing.B) {
	q := testQuery()
	c := cluster12()
	cands := enumerate(rand.New(rand.NewSource(1)), q, c, 32)
	if len(cands) == 0 {
		b.Fatal("no candidates")
	}
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		x := newCandIndex(len(cands))
		kept := make([]sim.Placement, 0, len(cands))
		for i := 0; i < b.N; i++ {
			clear(x)
			kept = kept[:0]
			for _, p := range cands {
				if j, slot := x.lookup(kept, p); j < 0 {
					x.add(slot, len(kept))
					kept = append(kept, p)
				}
			}
		}
	})
	b.Run("sprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen := make(map[string]bool, len(cands))
			for _, p := range cands {
				seen[fmt.Sprint([]int(p))] = true
			}
		}
	})
}
