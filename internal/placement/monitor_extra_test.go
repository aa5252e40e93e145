package placement

import (
	"context"
	"math/rand"
	"testing"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

func TestMonitoringTerminatesAndTracksTime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := analyzed(testQuery())
	c := checked(testCluster())
	initial, err := RandomValid(rng, a, c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 15, 3
	mcfg := MonitorConfig{IntervalS: 10, MigrationCostS: 5, MaxSteps: 6, SimCfg: cfg}
	steps, err := OnlineMonitoring(context.Background(), a, c, initial, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) > mcfg.MaxSteps+1 {
		t.Fatalf("%d steps exceed MaxSteps+1", len(steps))
	}
	// Elapsed time accounting: every non-initial step costs at least the
	// monitoring interval plus one migration.
	for i := 1; i < len(steps); i++ {
		minElapsed := steps[i-1].ElapsedS + mcfg.IntervalS + mcfg.MigrationCostS
		if steps[i].ElapsedS < minElapsed-1e-9 {
			t.Errorf("step %d elapsed %v < minimum %v", i, steps[i].ElapsedS, minElapsed)
		}
	}
}

func TestMonitoringRevertedMovesAreNotRepeated(t *testing.T) {
	// With a single host no move is possible: exactly one step.
	q := testQuery()
	c := checked(&hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "solo", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}})
	initial := sim.Placement{0, 0, 0, 0, 0}
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 10, 2
	steps, err := OnlineMonitoring(context.Background(), analyzed(q), c, initial, DefaultMonitorConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Fatalf("single-host monitoring took %d steps, want 1", len(steps))
	}
}

func TestRebalanceProposesValidMove(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := testQuery()
	c := checked(testCluster())
	p, err := RandomValid(rng, analyzed(q), c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 10, 2
	m, err := sim.Run(analyzed(q), c, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	next, move, moved := rebalanceOnce(analyzed(q), c, p, m, map[[2]int]bool{})
	if !moved {
		t.Skip("no move proposed for this placement")
	}
	if !Valid(analyzed(q), c, next) {
		t.Fatal("proposed move yields invalid placement")
	}
	if next[move[0]] != move[1] {
		t.Fatal("reported move does not match placement change")
	}
	// Banning the move must yield a different proposal (or none).
	banned := map[[2]int]bool{move: true}
	next2, move2, moved2 := rebalanceOnce(analyzed(q), c, p, m, banned)
	if moved2 && move2 == move {
		t.Fatal("banned move proposed again")
	}
	_ = next2
}

func TestSimOracleMatchesSim(t *testing.T) {
	q := testQuery()
	c := checked(testCluster())
	p := sim.Placement{0, 0, 1, 2, 3}
	if !Valid(analyzed(q), c, p) {
		// fall back to a generated valid placement
		var err error
		p, err = RandomValid(rand.New(rand.NewSource(15)), analyzed(q), c)
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 10, 2
	oracle := &SimOracle{Cfg: cfg}
	pc, err := PredictOne(oracle, analyzed(q), c, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run(analyzed(q), c, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pc.ProcLatencyMS != m.ProcLatencyMS || pc.Success != m.Success {
		t.Error("oracle must match simulator exactly")
	}
}

var _ = stream.Query{}

// TestMonitoringDeterministic: OnlineMonitoring draws no randomness of its
// own (the rng parameter it once took was unused) — the trajectory is a
// pure function of the query, cluster, initial placement and sim seed.
func TestMonitoringDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := testQuery()
	c := checked(testCluster())
	initial, err := RandomValid(rng, analyzed(q), c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.DurationS, cfg.WarmupS = 10, 2
	mcfg := MonitorConfig{IntervalS: 10, MigrationCostS: 5, MaxSteps: 4, SimCfg: cfg}
	a, err := OnlineMonitoring(context.Background(), analyzed(q), c, initial, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OnlineMonitoring(context.Background(), analyzed(q), c, initial, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ElapsedS != b[i].ElapsedS {
			t.Fatalf("step %d elapsed differs", i)
		}
		for j := range a[i].Placement {
			if a[i].Placement[j] != b[i].Placement[j] {
				t.Fatalf("step %d placement differs", i)
			}
		}
	}
}
