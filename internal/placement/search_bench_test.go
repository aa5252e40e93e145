package placement

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPlacementKey compares the compact binary dedup key against the
// fmt.Sprint encoding it replaced.
func BenchmarkPlacementKey(b *testing.B) {
	q := testQuery()
	c := cluster12()
	cands := enumerate(rand.New(rand.NewSource(1)), q, c, 32)
	if len(cands) == 0 {
		b.Fatal("no candidates")
	}
	b.Run("compact", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			seen := make(map[string]bool, len(cands))
			for _, p := range cands {
				buf = appendPlacementKey(buf[:0], p)
				seen[string(buf)] = true
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
