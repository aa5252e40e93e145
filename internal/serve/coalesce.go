package serve

import (
	"sync"
	"sync/atomic"

	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// scoreFn scores a slice of placement candidates for one (query, cluster)
// pair in a single call: one cost vector and one error per candidate, so
// a failing candidate fails only its own request. The server wires this
// to placement.Score behind the in-flight semaphore.
type scoreFn func(q *stream.Query, c *hardware.Cluster, ps []sim.Placement) ([]placement.PredCosts, []error)

// coalescer merges concurrent single-placement predict requests for the
// same (query, cluster) fingerprint into shared scoring calls. The first
// request for a group becomes its leader and drains the group's queue in
// batches: requests arriving while a batch is being scored are collected
// and scored together in the next one. Under concurrent load this turns N
// featurize-and-infer passes over the same query graph into a handful of
// batch calls that featurize it once (a scoring session shares the
// operator graph and host features across the batch).
type coalescer struct {
	score scoreFn
	// maxBatch caps the placements scored per call, so a burst of queued
	// requests cannot buy one unboundedly large batch; the remainder stays
	// pending for the next drain iteration.
	maxBatch int

	mu     sync.Mutex
	groups map[string]*predictGroup

	// The costream_serve_coalesce_*_total counters: batches actually
	// issued, requests enqueued, and requests that shared their batch
	// with at least one other request.
	batches   atomic.Int64
	enqueued  atomic.Int64
	coalesced atomic.Int64
}

type predictGroup struct {
	q       *stream.Query
	c       *hardware.Cluster
	pending []pendingPredict
	running bool
}

type pendingPredict struct {
	p  sim.Placement
	ch chan predictResult
}

type predictResult struct {
	costs placement.PredCosts
	err   error
	// batchSize is the number of requests scored in the same call (1 =
	// the request ran alone).
	batchSize int
}

func newCoalescer(score scoreFn, maxBatch int) *coalescer {
	if maxBatch <= 0 {
		maxBatch = maxCandidates
	}
	return &coalescer{score: score, maxBatch: maxBatch, groups: make(map[string]*predictGroup)}
}

// predict enqueues one placement under the group key and blocks until a
// batch containing it has been scored. q and c must be the decoded forms
// of the data the key fingerprints, so every member of a group is
// structurally identical.
func (co *coalescer) predict(key string, q *stream.Query, c *hardware.Cluster, p sim.Placement) predictResult {
	ch := make(chan predictResult, 1)
	co.mu.Lock()
	g := co.groups[key]
	if g == nil {
		g = &predictGroup{q: q, c: c}
		co.groups[key] = g
	}
	g.pending = append(g.pending, pendingPredict{p: p, ch: ch})
	co.enqueued.Add(1)
	if !g.running {
		g.running = true
		go co.drain(key, g)
	}
	co.mu.Unlock()
	return <-ch
}

// drain is the group leader loop: it repeatedly takes everything queued
// for the group, scores it in one call, and delivers the results. When the queue empties the group is removed; enqueue and
// removal both happen under co.mu, so a request either joins a live
// group or starts a fresh one — never neither.
func (co *coalescer) drain(key string, g *predictGroup) {
	for {
		co.mu.Lock()
		batch := g.pending
		if len(batch) > co.maxBatch {
			// Writes to the shrunken g.pending append past the kept
			// prefix, so the two slices never alias the same elements.
			g.pending = batch[co.maxBatch:]
			batch = batch[:co.maxBatch]
		} else {
			g.pending = nil
		}
		if len(batch) == 0 {
			g.running = false
			delete(co.groups, key)
			co.mu.Unlock()
			return
		}
		co.mu.Unlock()

		ps := make([]sim.Placement, len(batch))
		for i, pr := range batch {
			ps[i] = pr.p
		}
		co.batches.Add(1)
		if len(batch) > 1 {
			co.coalesced.Add(int64(len(batch)))
		}
		costs, errs := co.score(g.q, g.c, ps)
		for i, pr := range batch {
			pr.ch <- predictResult{costs: costs[i], err: errs[i], batchSize: len(batch)}
		}
	}
}
