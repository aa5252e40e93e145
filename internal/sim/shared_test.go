package sim

import (
	"math/rand"
	"sync"
	"testing"
)

// TestRunSharesOneAnalysis: runs of one analysis on one checked cluster,
// made on several goroutines at once as a SimOracle search scores a
// round's tile on several workers, each equal the serial run of the same
// placement bit for bit. Under -race it also shows that a run only reads
// the analysis and the cluster it shares.
func TestRunSharesOneAnalysis(t *testing.T) {
	const workers, placements = 4, 6
	for k, r := range generatedRuns(58, 4, 6, 220) {
		a, c := analyzed(r.q), checked(r.c)
		rng := rand.New(rand.NewSource(r.cfg.Seed))
		ps := make([]Placement, placements)
		want := make([]string, placements)
		for i := range ps {
			ps[i] = make(Placement, len(r.p))
			for op := range ps[i] {
				ps[i][op] = r.p[rng.Intn(len(r.p))]
			}
			m, err := Run(a, c, ps[i], r.cfg)
			if err != nil {
				t.Fatalf("run %d placement %d: %v", k, i, err)
			}
			want[i] = hexMetrics(m)
		}
		got := make([][placements]string, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each worker walks the placements from its own start, so
				// different placements of the one analysis run at once.
				for j := range placements {
					i := (w + j) % placements
					m, err := Run(a, c, ps[i], r.cfg)
					if err != nil {
						errs[w] = err
						return
					}
					got[w][i] = hexMetrics(m)
				}
			}()
		}
		wg.Wait()
		for w := range workers {
			if errs[w] != nil {
				t.Fatalf("run %d worker %d: %v", k, w, errs[w])
			}
			for i := range placements {
				if got[w][i] != want[i] {
					t.Fatalf("run %d worker %d placement %d differs from the serial run:\ngot:\n%swant:\n%s", k, w, i, got[w][i], want[i])
				}
			}
		}
	}
}
