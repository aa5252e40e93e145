package controlplane

import (
	"cmp"
	"slices"

	"costream/internal/par"
)

// Outcome is one deployment's result in a Pass: the deployment as its
// decision left it, the decision, and the decision's error.
type Outcome struct {
	Deployment Deployment
	Decision   Decision
	Err        error
}

// Pass decides every deployment of deps at once. decide runs once per
// index, on up to GOMAXPROCS goroutines, each call on its own copy of
// deps[i]; the outcomes come back in the order of deps, and deps itself
// is not written. The caller commits the outcomes in that order, so
// everything it derives from them (report rows, histories, log lines)
// keeps deployment order however the decisions interleaved, and every
// seed a decision draws must come from its index, never from the order
// decisions run in.
//
// Decisions start largest first: in descending operator count, ties in
// index order. A decision's cost grows with its query, so the longest
// ones do not end up queued behind short ones on one goroutine while the
// others idle at the end of the pass.
//
// A decision may write only its own copy and read state that is safe
// for concurrent use: the pass's View, the Predictor, the MetricFeed.
// Deploy and Heal replace d.Placement rather than write through it, so
// the copy may share the original's placement array. Deployments do not
// contend for hosts today; when they do, the ordered commit is where a
// decision that conflicts with an earlier one is caught.
func Pass(deps []Deployment, decide func(i int, d *Deployment) (Decision, error)) []Outcome {
	out := make([]Outcome, len(deps))
	order := make([]int, len(deps))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(deps[b].Query.Query().NumOps(), deps[a].Query.Query().NumOps()) })
	par.Each(len(order), 0, func(_, k int) {
		i := order[k]
		o := &out[i]
		o.Deployment = deps[i]
		o.Decision, o.Err = decide(i, &o.Deployment)
	})
	return out
}
