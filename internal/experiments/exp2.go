package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/qerror"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// SpeedupRow is one bar pair of Figure 9: median speed-up of the optimized
// initial placement over the plain heuristic placement, for COSTREAM and
// the flat-vector baseline.
type SpeedupRow struct {
	Class     string
	N         int
	CoSpeedup float64 // median Lp(initial) / Lp(COSTREAM-optimized)
	FlSpeedup float64 // median Lp(initial) / Lp(flat-vector-optimized)
}

// Exp2aResult reproduces Figure 9.
type Exp2aResult struct {
	Rows []SpeedupRow
}

// failedLatencySentinelMS stands in for the latency of an unsuccessful or
// crashed execution: the full execution horizon. The paper's failed
// initial placements likewise manifest as extreme latencies.
const failedLatencySentinelMS = 120_000

func measuredLp(m *sim.Metrics) float64 {
	if !m.Success || m.Crashed {
		return failedLatencySentinelMS
	}
	return m.ProcLatencyMS
}

// Exp2aPlacement optimizes the initial placement of n queries per query
// class with COSTREAM and the baseline, and reports median speed-ups over
// the plain heuristic initial placement [32] (Figure 9).
func (s *Suite) Exp2aPlacement() (*Exp2aResult, error) {
	coPred, err := s.Predictor()
	if err != nil {
		return nil, err
	}
	flPred, err := s.FlatPredictor()
	if err != nil {
		return nil, err
	}
	nPerClass := s.scaled(50, 12)
	classes := []stream.QueryClass{
		stream.ClassLinear, stream.ClassLinearAgg,
		stream.ClassTwoWayJoin, stream.ClassTwoWayJoinAgg,
		stream.ClassThreeWayJoin, stream.ClassThreeWayJoinAgg,
	}
	res := &Exp2aResult{}
	simCfg := s.simConfig()
	for ci, class := range classes {
		gen := workload.New(workload.DefaultConfig(8800 + int64(ci)))
		rng := rand.New(rand.NewSource(4400 + int64(ci)))
		var coRatios, flRatios []float64
		for i := 0; i < nPerClass; i++ {
			q := gen.QueryOfClass(class)
			cluster := gen.Cluster()
			initial, err := placement.RandomValid(rng, q, cluster)
			if err != nil {
				continue // no valid placement of this query on this cluster
			}
			runCfg := simCfg
			runCfg.Seed = int64(9000 + ci*1000 + i)
			initM, err := sim.Run(q, cluster, initial, runCfg)
			if err != nil {
				return nil, err
			}
			initLp := measuredLp(initM)

			// One seed per query: both models rank the same candidates.
			seed := int64(4500 + ci*1000 + i)
			coLp, err := s.optimizedLp(coPred, q, cluster, seed, runCfg)
			if err != nil {
				return nil, err
			}
			coRatios = append(coRatios, initLp/maxf(coLp, 1e-3))
			flLp, err := s.optimizedLp(flPred, q, cluster, seed, runCfg)
			if err != nil {
				return nil, err
			}
			flRatios = append(flRatios, initLp/maxf(flLp, 1e-3))
		}
		res.Rows = append(res.Rows, SpeedupRow{
			Class:     class.String(),
			N:         len(coRatios),
			CoSpeedup: qerror.Quantile(coRatios, 0.5),
			FlSpeedup: qerror.Quantile(flRatios, 0.5),
		})
		s.Logf("exp2a %v done (n=%d)", class, len(coRatios))
	}
	return res, nil
}

// optimizedLp places the query with the paper's optimizer — the best of
// 16 random valid placements drawn from seed, ranked by pred — and
// returns the placement's measured processing latency.
func (s *Suite) optimizedLp(pred placement.Predictor, q *stream.Query, c *hardware.Cluster, seed int64, runCfg sim.Config) (float64, error) {
	res, err := placement.Search(context.Background(), pred, q, c, placement.RandomSample{}, placement.MinProcLatency,
		placement.Budget{MaxCandidates: 16}, placement.SearchOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	m, err := sim.Run(q, c, res.Placement, runCfg)
	if err != nil {
		return 0, err
	}
	return measuredLp(m), nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Table renders Figure 9 as rows.
func (r *Exp2aResult) Table() *Table {
	t := &Table{Title: "[Exp 2a / Figure 9] Median Lp speed-up of optimized initial placements"}
	for _, row := range r.Rows {
		t.Lines = append(t.Lines, fmt.Sprintf(
			"%-16s COSTREAM %6.2fx | FlatVector %6.2fx (n=%d)",
			row.Class, row.CoSpeedup, row.FlSpeedup, row.N))
	}
	return t
}

// MonitoringRow is one point of Figure 10: for a linear filter query with
// the given event rate and selectivity, the initial slow-down of the
// monitoring baseline relative to COSTREAM's initial placement, and the
// monitoring time it needed to become competitive.
type MonitoringRow struct {
	EventRate   float64
	Selectivity float64
	// SlowdownX is Lp(monitoring initial) / Lp(COSTREAM initial).
	SlowdownX float64
	// OverheadS is the monitoring + migration time until the baseline's
	// placement reached within 5% of COSTREAM's latency; negative means
	// it never did within its budget.
	OverheadS float64
}

// Exp2bResult reproduces Figure 10.
type Exp2bResult struct {
	Rows []MonitoringRow
}

// Exp2bMonitoring compares COSTREAM's initial placement against the online
// monitoring baseline [1] over an event-rate x selectivity grid of linear
// filter queries (Figure 10).
func (s *Suite) Exp2bMonitoring() (*Exp2bResult, error) {
	coPred, err := s.Predictor()
	if err != nil {
		return nil, err
	}
	rates := []float64{100, 200, 400, 800, 1600, 3200, 6400}
	sels := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	if s.Scale < 1 {
		rates = []float64{100, 800, 6400}
		sels = []float64{0.1, 0.5, 1.0}
	}
	gen := workload.New(workload.DefaultConfig(555))
	rng := rand.New(rand.NewSource(556))
	simCfg := s.simConfig()
	mcfg := placement.DefaultMonitorConfig(simCfg)
	res := &Exp2bResult{}
	for ri, rate := range rates {
		for si, sel := range sels {
			q := gen.FilterQuery(rate, sel)
			cluster := gen.Cluster()
			initial, err := placement.RandomValid(rng, q, cluster)
			if err != nil {
				continue // no valid placement of this query on this cluster
			}
			coLp, err := s.optimizedLp(coPred, q, cluster, int64(5600+10*ri+si), simCfg)
			if err != nil {
				return nil, err
			}
			steps, err := placement.OnlineMonitoring(context.Background(), q, cluster, initial, mcfg)
			if err != nil {
				return nil, err
			}
			row := MonitoringRow{
				EventRate:   rate,
				Selectivity: sel,
				SlowdownX:   measuredLp(steps[0].Metrics) / maxf(coLp, 1e-3),
				OverheadS:   -1,
			}
			for _, st := range steps {
				if measuredLp(st.Metrics) <= coLp*1.05 {
					row.OverheadS = st.ElapsedS
					break
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// SearchStrategyRow is one row of the Exp 2c search-strategy comparison:
// for one strategy under the shared candidate budget, the median measured
// Lp speed-up over the plain heuristic initial placement, the median
// predicted Lp of the chosen placements, and the mean candidates scored.
type SearchStrategyRow struct {
	Strategy     string
	N            int
	MedSpeedup   float64
	MedPredLp    float64
	MeanExamined float64
}

// Exp2cResult extends Exp 2 beyond the paper: it compares the placement
// search strategies (random sampling as in the paper, plus exhaustive,
// beam and local search over the same learned cost model) under one
// candidate budget on larger clusters, where blind sampling thins out.
type Exp2cResult struct {
	Budget int
	Rows   []SearchStrategyRow
}

// Exp2cSearchStrategies runs every placement search strategy with the
// COSTREAM predictor over a mixed-class query set on 8-14 host clusters
// and reports per-strategy quality under a shared candidate budget.
func (s *Suite) Exp2cSearchStrategies() (*Exp2cResult, error) {
	coPred, err := s.Predictor()
	if err != nil {
		return nil, err
	}
	n := s.scaled(24, 4)
	const budget = 48
	wcfg := workload.DefaultConfig(7700)
	wcfg.MinHosts, wcfg.MaxHosts = 8, 14
	gen := workload.New(wcfg)
	rng := rand.New(rand.NewSource(7701))
	strategies := []placement.Strategy{
		placement.RandomSample{},
		placement.Exhaustive{},
		placement.Beam{Width: 6},
		placement.LocalSearch{},
	}
	simCfg := s.simConfig()
	ratios := make([][]float64, len(strategies))
	predLp := make([][]float64, len(strategies))
	examined := make([]int, len(strategies))
	counted := make([]int, len(strategies))
	for i := 0; i < n; i++ {
		q := gen.Query()
		cluster := gen.Cluster()
		initial, err := placement.RandomValid(rng, q, cluster)
		if err != nil {
			continue
		}
		runCfg := simCfg
		runCfg.Seed = int64(7800 + i)
		initM, err := sim.Run(q, cluster, initial, runCfg)
		if err != nil {
			return nil, err
		}
		initLp := measuredLp(initM)
		for si, strat := range strategies {
			res, err := placement.Search(context.Background(), coPred, q, cluster, strat, placement.MinProcLatency,
				placement.Budget{MaxCandidates: budget},
				placement.SearchOptions{Seed: int64(7900 + i)})
			if err != nil {
				continue
			}
			m, err := sim.Run(q, cluster, res.Placement, runCfg)
			if err != nil {
				return nil, err
			}
			ratios[si] = append(ratios[si], initLp/maxf(measuredLp(m), 1e-3))
			predLp[si] = append(predLp[si], res.Costs.ProcLatencyMS)
			examined[si] += res.Examined
			counted[si]++
		}
	}
	res := &Exp2cResult{Budget: budget}
	for si, strat := range strategies {
		row := SearchStrategyRow{Strategy: strat.Name(), N: counted[si]}
		if counted[si] > 0 {
			row.MedSpeedup = qerror.Quantile(ratios[si], 0.5)
			row.MedPredLp = qerror.Quantile(predLp[si], 0.5)
			row.MeanExamined = float64(examined[si]) / float64(counted[si])
		}
		res.Rows = append(res.Rows, row)
		s.Logf("exp2c %s done (n=%d)", strat.Name(), counted[si])
	}
	return res, nil
}

// Table renders the strategy comparison as rows.
func (r *Exp2cResult) Table() *Table {
	t := &Table{Title: fmt.Sprintf(
		"[Exp 2c] Placement search strategies on 8-14 host clusters (budget=%d candidates)", r.Budget)}
	for _, row := range r.Rows {
		t.Lines = append(t.Lines, fmt.Sprintf(
			"%-13s median speed-up %6.2fx | median predicted Lp %8.1fms | mean examined %5.1f (n=%d)",
			row.Strategy, row.MedSpeedup, row.MedPredLp, row.MeanExamined, row.N))
	}
	return t
}

// Table renders Figure 10 as rows.
func (r *Exp2bResult) Table() *Table {
	t := &Table{Title: "[Exp 2b / Figure 10] Online monitoring baseline vs COSTREAM initial placement"}
	worst := 0.0
	never := 0
	for _, row := range r.Rows {
		over := fmt.Sprintf("%5.0fs", row.OverheadS)
		if row.OverheadS < 0 {
			over = "never"
			never++
		}
		if row.SlowdownX > worst {
			worst = row.SlowdownX
		}
		t.Lines = append(t.Lines, fmt.Sprintf(
			"rate=%6.0f ev/s sel=%.2f slow-down=%7.2fx monitoring-overhead=%s",
			row.EventRate, row.Selectivity, row.SlowdownX, over))
	}
	t.Lines = append(t.Lines, fmt.Sprintf("max slow-down %.1fx; %d/%d configurations never caught up",
		worst, never, len(r.Rows)))
	return t
}
