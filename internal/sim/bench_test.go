package sim

import (
	"fmt"
	"testing"

	"costream/internal/hardware"
	"costream/internal/stream"
)

// BenchmarkRun times one simulator run of an analysed generated query: on 4-host
// clusters at DefaultConfig, the shape of a training trace, and on
// 220-host clusters at the fleet loop's observation config, where all but
// a few hosts are idle.
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		hosts int
		cfg   Config
	}{{4, DefaultConfig()}, {220, fleetObsConfig}} {
		runs := generatedRuns(7, 16, bc.hosts)
		analyses := make([]*stream.Analysis, len(runs))
		clusters := make([]hardware.Checked, len(runs))
		for i, r := range runs {
			analyses[i], clusters[i] = analyzed(r.q), checked(r.c)
		}
		b.Run(fmt.Sprintf("hosts=%d", bc.hosts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := runs[i%len(runs)]
				cfg := bc.cfg
				cfg.Seed = r.cfg.Seed
				if _, err := Run(analyses[i%len(runs)], clusters[i%len(runs)], r.p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
