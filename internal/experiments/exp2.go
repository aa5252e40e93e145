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
// the plain heuristic initial placement [32] (Figure 9): one bar pair per
// class, costream_speedup_p50 and flatvec_speedup_p50, each the median of
// Lp(initial) / Lp(optimized) over the class's n queries.
func (s *Suite) Exp2aPlacement() (*Table, error) {
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
	var rows []Row
	simCfg := s.simConfig()
	for ci, class := range classes {
		gen := workload.New(workload.DefaultConfig(8800 + int64(ci)))
		rng := rand.New(rand.NewSource(4400 + int64(ci)))
		var coRatios, flRatios []float64
		for i := 0; i < nPerClass; i++ {
			a := gen.QueryOfClass(class)
			cluster, err := gen.Cluster().Check()
			if err != nil {
				return nil, err
			}
			initial, err := placement.RandomValid(rng, a, cluster)
			if err != nil {
				continue // no valid placement of this query on this cluster
			}
			runCfg := simCfg
			runCfg.Seed = int64(9000 + ci*1000 + i)
			initM, err := sim.Run(a, cluster, initial, runCfg)
			if err != nil {
				return nil, err
			}
			initLp := measuredLp(initM)

			// One seed per query: both models rank the same candidates.
			seed := int64(4500 + ci*1000 + i)
			coLp, err := s.optimizedLp(coPred, a, cluster, seed, runCfg)
			if err != nil {
				return nil, err
			}
			coRatios = append(coRatios, initLp/maxf(coLp, 1e-3))
			flLp, err := s.optimizedLp(flPred, a, cluster, seed, runCfg)
			if err != nil {
				return nil, err
			}
			flRatios = append(flRatios, initLp/maxf(flLp, 1e-3))
		}
		rows = append(rows, Row{Label: class.String(), N: len(coRatios), Values: []Value{
			{"costream_speedup_p50", qerror.Quantile(coRatios, 0.5)},
			{"flatvec_speedup_p50", qerror.Quantile(flRatios, 0.5)},
		}})
		s.Logf("exp2a %v done (n=%d)", class, len(coRatios))
	}
	return exp2aTable(rows), nil
}

func exp2aTable(rows []Row) *Table {
	return &Table{Title: "[Exp 2a / Figure 9] Median Lp speed-up of optimized initial placements", Rows: rows,
		line: func(r Row) string {
			return fmt.Sprintf("%-16s COSTREAM %6.2fx | FlatVector %6.2fx (n=%d)",
				r.Label, r.Get("costream_speedup_p50"), r.Get("flatvec_speedup_p50"), r.N)
		}}
}

// optimizedLp places the query with the paper's optimizer — the best of
// 16 random valid placements drawn from seed, ranked by pred — and
// returns the placement's measured processing latency.
func (s *Suite) optimizedLp(pred placement.Predictor, a *stream.Analysis, c hardware.Checked, seed int64, runCfg sim.Config) (float64, error) {
	res, err := placement.Search(context.Background(), pred, a, c, placement.RandomSample{}, placement.MinProcLatency,
		placement.Budget{MaxCandidates: 16}, placement.SearchOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	m, err := sim.Run(a, c, res.Placement, runCfg)
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

// Exp2bMonitoring compares COSTREAM's initial placement against the online
// monitoring baseline [1] over an event-rate x selectivity grid of linear
// filter queries (Figure 10). Each row is one query: its event_rate and
// selectivity, the slowdown Lp(monitoring initial) / Lp(COSTREAM initial),
// and overhead_s, the monitoring and migration time until the baseline's
// placement came within 5% of COSTREAM's latency, -1 when it never did
// within its budget.
func (s *Suite) Exp2bMonitoring() (*Table, error) {
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
	var rows []Row
	for ri, rate := range rates {
		for si, sel := range sels {
			a := gen.FilterQuery(rate, sel)
			cluster, err := gen.Cluster().Check()
			if err != nil {
				return nil, err
			}
			initial, err := placement.RandomValid(rng, a, cluster)
			if err != nil {
				continue // no valid placement of this query on this cluster
			}
			coLp, err := s.optimizedLp(coPred, a, cluster, int64(5600+10*ri+si), simCfg)
			if err != nil {
				return nil, err
			}
			steps, err := placement.OnlineMonitoring(context.Background(), a, cluster, initial, mcfg)
			if err != nil {
				return nil, err
			}
			overhead := -1.0
			for _, st := range steps {
				if measuredLp(st.Metrics) <= coLp*1.05 {
					overhead = st.ElapsedS
					break
				}
			}
			rows = append(rows, Row{N: 1, Values: []Value{
				{"event_rate", rate},
				{"selectivity", sel},
				{"slowdown", measuredLp(steps[0].Metrics) / maxf(coLp, 1e-3)},
				{"overhead_s", overhead},
			}})
		}
	}
	return exp2bTable(rows), nil
}

// exp2bTable closes Figure 10 with the worst slow-down and the number of
// queries whose baseline never caught up.
func exp2bTable(rows []Row) *Table {
	worst, never := 0.0, 0
	for _, r := range rows {
		if r.Get("slowdown") > worst {
			worst = r.Get("slowdown")
		}
		if r.Get("overhead_s") < 0 {
			never++
		}
	}
	return &Table{Title: "[Exp 2b / Figure 10] Online monitoring baseline vs COSTREAM initial placement", Rows: rows,
		Notes: []string{fmt.Sprintf("max slow-down %.1fx; %d/%d configurations never caught up", worst, never, len(rows))},
		line: func(r Row) string {
			over := fmt.Sprintf("%5.0fs", r.Get("overhead_s"))
			if r.Get("overhead_s") < 0 {
				over = "never"
			}
			return fmt.Sprintf("rate=%6.0f ev/s sel=%.2f slow-down=%7.2fx monitoring-overhead=%s",
				r.Get("event_rate"), r.Get("selectivity"), r.Get("slowdown"), over)
		}}
}

// Exp2cSearchStrategies runs every placement search strategy with the
// COSTREAM predictor over a mixed-class query set on 8-14 host clusters
// and reports per-strategy quality under a shared candidate budget. It
// extends Exp 2 beyond the paper: random sampling as in the paper, plus
// exhaustive, beam and local search over the same learned cost model, on
// clusters large enough for blind sampling to thin out. Each row is one
// strategy over its n searched queries: speedup_p50, the median measured
// Lp speed-up over the plain heuristic initial placement; pred_lp_p50_ms,
// the median predicted Lp of the chosen placements; mean_examined, the
// mean candidates scored; and the shared budget.
func (s *Suite) Exp2cSearchStrategies() (*Table, error) {
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
		a := gen.Query()
		cluster, err := gen.Cluster().Check()
		if err != nil {
			return nil, err
		}
		initial, err := placement.RandomValid(rng, a, cluster)
		if err != nil {
			continue
		}
		runCfg := simCfg
		runCfg.Seed = int64(7800 + i)
		initM, err := sim.Run(a, cluster, initial, runCfg)
		if err != nil {
			return nil, err
		}
		initLp := measuredLp(initM)
		for si, strat := range strategies {
			res, err := placement.Search(context.Background(), coPred, a, cluster, strat, placement.MinProcLatency,
				placement.Budget{MaxCandidates: budget},
				placement.SearchOptions{Seed: int64(7900 + i)})
			if err != nil {
				continue
			}
			m, err := sim.Run(a, cluster, res.Placement, runCfg)
			if err != nil {
				return nil, err
			}
			ratios[si] = append(ratios[si], initLp/maxf(measuredLp(m), 1e-3))
			predLp[si] = append(predLp[si], res.Costs.ProcLatencyMS)
			examined[si] += res.Examined
			counted[si]++
		}
	}
	var rows []Row
	for si, strat := range strategies {
		var speedup, predicted, mean float64
		if counted[si] > 0 {
			speedup = qerror.Quantile(ratios[si], 0.5)
			predicted = qerror.Quantile(predLp[si], 0.5)
			mean = float64(examined[si]) / float64(counted[si])
		}
		rows = append(rows, Row{Label: strat.Name(), N: counted[si], Values: []Value{
			{"speedup_p50", speedup}, {"pred_lp_p50_ms", predicted}, {"mean_examined", mean}, {"budget", budget},
		}})
		s.Logf("exp2c %s done (n=%d)", strat.Name(), counted[si])
	}
	return exp2cTable(budget, rows), nil
}

func exp2cTable(budget int, rows []Row) *Table {
	return &Table{Title: fmt.Sprintf("[Exp 2c] Placement search strategies on 8-14 host clusters (budget=%d candidates)", budget),
		Rows: rows, line: func(r Row) string {
			return fmt.Sprintf("%-13s median speed-up %6.2fx | median predicted Lp %8.1fms | mean examined %5.1f (n=%d)",
				r.Label, r.Get("speedup_p50"), r.Get("pred_lp_p50_ms"), r.Get("mean_examined"), r.N)
		}}
}
