package sim

import (
	"fmt"
	"testing"

	"costream/internal/hardware"
)

// BenchmarkRun times one simulator run of a generated query: on 4-host
// clusters at DefaultConfig, the shape of a training trace, and on
// 220-host clusters at the fleet loop's observation config, where all but
// a few hosts are idle.
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		hosts int
		cfg   Config
	}{{4, DefaultConfig()}, {220, fleetObsConfig}} {
		runs := generatedRuns(7, 16, bc.hosts)
		clusters := make([]hardware.Checked, len(runs))
		for i, r := range runs {
			clusters[i] = checked(r.c)
		}
		b.Run(fmt.Sprintf("hosts=%d", bc.hosts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := runs[i%len(runs)]
				cfg := bc.cfg
				cfg.Seed = r.cfg.Seed
				if _, err := Run(r.q, clusters[i%len(runs)], r.p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
