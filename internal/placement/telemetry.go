package placement

import (
	"sync"

	"costream/internal/obs"
)

// RoundStats is the per-round telemetry of one search run: how many
// candidates the strategy streamed into the round, how the budgeted core
// disposed of them, and where the incumbent stood afterwards. The
// sequence of BestScore values over rounds is the search's anytime
// curve. Collected only when SearchOptions.Telemetry is set; the always
// -on aggregate counterparts live in the obs.Default registry
// (costream_search_* families).
type RoundStats struct {
	// Round is the 1-based scoring-round ordinal.
	Round int `json:"round"`
	// Submitted counts candidates the strategy streamed into the round;
	// Fresh of them were scored, Duplicates were already seen (served
	// from the dedup cache), Skipped fell past the candidate budget.
	Submitted  int `json:"submitted"`
	Fresh      int `json:"fresh"`
	Duplicates int `json:"duplicates"`
	Skipped    int `json:"skipped"`
	// Filtered counts this round's scored candidates removed by the
	// sanity check or an error; Errored is the error subset.
	Filtered int `json:"filtered"`
	Errored  int `json:"errored"`
	// BestIndex/BestScore identify the incumbent (best sane candidate,
	// falling back to the cheapest scored one) after the round;
	// BestIndex is -1 while nothing has scored.
	BestIndex int     `json:"best_index"`
	BestScore float64 `json:"best_score"`
	// ElapsedNS is the wall time of the round's scoring pass.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// searchMetrics aggregates every search run in the process into the
// default registry — the families the serving layer exposes on /metrics.
type searchMetrics struct {
	rounds       *obs.Counter
	scored       *obs.Counter
	dups         *obs.Counter
	skipped      *obs.Counter
	filtered     *obs.Counter
	errored      *obs.Counter
	roundSeconds *obs.Histogram
}

var searchMet = sync.OnceValue(func() *searchMetrics {
	r := obs.Default()
	cand := func(status string) *obs.Counter {
		return r.Counter("costream_search_candidates_total",
			"placement candidates streamed into search rounds, by disposition",
			"status", status)
	}
	return &searchMetrics{
		rounds:       r.Counter("costream_search_rounds_total", "generate->score->prune search rounds executed"),
		scored:       cand("scored"),
		dups:         cand("duplicate"),
		skipped:      cand("skipped"),
		filtered:     r.Counter("costream_search_filtered_total", "scored candidates removed by the sanity filter or errors"),
		errored:      r.Counter("costream_search_errored_total", "candidates whose prediction errored"),
		roundSeconds: r.Histogram("costream_search_round_seconds", "wall time of one scoring round", 1e-9),
	}
})

// runCounters caches the costream_search_runs_total series of each
// strategy name a search has completed under: resolving one in the
// registry builds its series key.
var runCounters sync.Map // strategy name -> *obs.Counter

// countRun records one completed Search invocation under its strategy.
func countRun(strategy string) {
	c, ok := runCounters.Load(strategy)
	if !ok {
		c, _ = runCounters.LoadOrStore(strategy, obs.Default().Counter("costream_search_runs_total",
			"completed placement search runs, by strategy", "strategy", strategy))
	}
	c.(*obs.Counter).Inc()
}
