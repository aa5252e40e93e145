package placement

import (
	"context"
	"encoding/json"
	"testing"

	"costream/internal/obs"
)

// TestSearchTelemetryPerRound checks the opt-in RoundStats collection:
// one entry per scoring round, candidate dispositions adding up to the
// run totals, and a non-increasing incumbent (anytime) curve.
func TestSearchTelemetryPerRound(t *testing.T) {
	q := testQuery()
	c := checked(cluster12())
	pred := landscapePredictor{}
	budget := Budget{MaxCandidates: 48}
	for _, strat := range allStrategies(t) {
		res, err := Search(context.Background(), pred, analyzed(q), c, strat, MinProcLatency, budget, SearchOptions{Seed: 9, Telemetry: true})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if len(res.Telemetry) != res.Rounds {
			t.Fatalf("%s: %d telemetry rounds, want %d", strat.Name(), len(res.Telemetry), res.Rounds)
		}
		fresh, filtered, errored := 0, 0, 0
		lastBest := 0.0
		for i, rs := range res.Telemetry {
			if rs.Round != i+1 {
				t.Errorf("%s: round ordinal %d at position %d", strat.Name(), rs.Round, i)
			}
			if rs.Fresh+rs.Duplicates+rs.Skipped != rs.Submitted {
				t.Errorf("%s round %d: fresh %d + dup %d + skipped %d != submitted %d",
					strat.Name(), rs.Round, rs.Fresh, rs.Duplicates, rs.Skipped, rs.Submitted)
			}
			if rs.ElapsedNS < 0 {
				t.Errorf("%s round %d: negative elapsed %d", strat.Name(), rs.Round, rs.ElapsedNS)
			}
			fresh += rs.Fresh
			filtered += rs.Filtered
			errored += rs.Errored
			if rs.BestIndex < 0 {
				t.Errorf("%s round %d: no incumbent after a scored round", strat.Name(), rs.Round)
				continue
			}
			if i > 0 && rs.BestScore > lastBest {
				t.Errorf("%s round %d: anytime curve increased %g -> %g",
					strat.Name(), rs.Round, lastBest, rs.BestScore)
			}
			lastBest = rs.BestScore
		}
		if fresh != res.Examined {
			t.Errorf("%s: telemetry fresh sum %d != examined %d", strat.Name(), fresh, res.Examined)
		}
		if filtered != res.Filtered || errored != res.Errored {
			t.Errorf("%s: telemetry filtered/errored %d/%d != result %d/%d",
				strat.Name(), filtered, errored, res.Filtered, res.Errored)
		}
		final := res.Telemetry[len(res.Telemetry)-1]
		if final.BestIndex != res.Index || final.BestScore != MinProcLatency.Score(res.Costs) {
			t.Errorf("%s: final round incumbent (%d, %g) != result (%d, %g)",
				strat.Name(), final.BestIndex, final.BestScore,
				res.Index, MinProcLatency.Score(res.Costs))
		}
	}
}

// TestSearchTelemetryOffByDefault pins that plain runs pay nothing for
// per-round collection and keep the result JSON-marshalable.
func TestSearchTelemetryOffByDefault(t *testing.T) {
	res, err := Search(context.Background(), landscapePredictor{}, analyzed(testQuery()), checked(cluster12()), RandomSample{}, MinProcLatency,
		Budget{MaxCandidates: 16}, SearchOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatalf("Telemetry = %v without opting in", res.Telemetry)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("SearchResult not JSON-marshalable: %v", err)
	}
}

// TestSearchTelemetryDoesNotChangeSelection: collection is observational.
func TestSearchTelemetryDoesNotChangeSelection(t *testing.T) {
	a, c := analyzed(testQuery()), checked(cluster12())
	for _, strat := range allStrategies(t) {
		plain, err := Search(context.Background(), landscapePredictor{}, a, c, strat, MinProcLatency, Budget{MaxCandidates: 32}, SearchOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := Search(context.Background(), landscapePredictor{}, a, c, strat, MinProcLatency, Budget{MaxCandidates: 32}, SearchOptions{Seed: 7, Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Index != traced.Index || plain.Costs != traced.Costs {
			t.Errorf("%s: telemetry changed selection: %d/%v vs %d/%v",
				strat.Name(), plain.Index, plain.Costs, traced.Index, traced.Costs)
		}
	}
}

// TestSearchMetricsRecorded checks the always-on aggregates in the
// default registry move when a search runs (deltas, since other tests
// share the process-wide registry).
func TestSearchMetricsRecorded(t *testing.T) {
	m := searchMet()
	rounds0, scored0 := m.rounds.Value(), m.scored.Value()
	runs := obs.Default().Counter("costream_search_runs_total",
		"completed placement search runs, by strategy", "strategy", "random")
	runs0 := runs.Value()
	res, err := Search(context.Background(), landscapePredictor{}, analyzed(testQuery()), checked(cluster12()), RandomSample{}, MinProcLatency,
		Budget{MaxCandidates: 16}, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.rounds.Value() - rounds0; got < int64(res.Rounds) {
		t.Errorf("rounds counter moved %d, want >= %d", got, res.Rounds)
	}
	if got := m.scored.Value() - scored0; got < int64(res.Examined) {
		t.Errorf("scored counter moved %d, want >= %d", got, res.Examined)
	}
	if got := runs.Value() - runs0; got != 1 {
		t.Errorf("runs{strategy=random} moved %d, want 1", got)
	}
}
