// Package placement solves the initial operator placement problem with
// COSTREAM-style cost estimates (Section V of the paper): a family of
// search strategies generates candidate placements obeying the
// IoT-scenario rules of Figure 5 (operator co-location allowed, increasing
// computing capability along the data flow, acyclic placements), a
// cost-model-driven budgeted search core selects the best candidate, and
// an online monitoring baseline (after Aniello et al. [1]) provides the
// Exp 2b comparison.
package placement

import (
	"fmt"
	"math/rand"
	"sync"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// generator is the shared candidate-generation substrate: the data-flow
// topology of one (query, checked cluster) pair, whose Checked holds the
// hosts' capability bins and scores, plus reusable bitset scratch for the
// visited/banned host sets. One generator serves an entire search run
// (thousands of draws, validity checks and partial-placement expansions)
// without per-draw allocations; it must not be shared across goroutines.
type generator struct {
	q      *stream.Query
	k      hardware.Checked
	topo   stream.Topology
	nHosts int

	// visited[v] is the set of hosts op v's output has passed through
	// (valid only for ops placed since the enclosing replay/draw).
	visited []bitset
	// banned marks hosts excluded from every emitted or accepted
	// candidate (cordoned hosts); nil when nothing is banned.
	banned  bitset
	choices []int
	scratch sim.Placement // draw scratch
	comp    sim.Placement // completion scratch

	// Neighbourhood scratch of a local search, allocated by its first
	// neighbourhood: the steps found (a stepPool buffer, handed back by
	// release), the hosts a move of the current operator may not take,
	// that operator's strict descendants, the swap-check placement, the
	// backing array of built neighbours and the indices of the kept
	// steps.
	steps   *[]neighbor
	deny    bitset
	desc    []bool
	swapped sim.Placement
	built   []int
	picks   []int
}

// stepPool keeps neighbourhood step buffers from one search to the next.
// A buffer grows to about operators × hosts steps; grown afresh in every
// search, it was most of what a search allocated on a large cluster.
var stepPool = sync.Pool{New: func() any { return new([]neighbor) }}

// neighbor is one step from a base placement: operator v moved to host x
// or, when swap is set, the hosts of operators v and x exchanged.
type neighbor struct {
	v, x int
	swap bool
}

func newGenerator(q *stream.Query, topo stream.Topology, k hardware.Checked) *generator {
	n, nHosts := len(q.Ops), len(k.Cluster().Hosts)
	g := &generator{
		q:       q,
		k:       k,
		topo:    topo,
		nHosts:  nHosts,
		visited: make([]bitset, n),
		scratch: make(sim.Placement, n),
		comp:    make(sim.Placement, n),
	}
	for i := 0; i < n; i++ {
		g.visited[i] = newBitset(nHosts)
	}
	return g
}

// release hands the generator's step buffer back to stepPool once its
// search's strategy has run; a later neighbors call takes another.
func (g *generator) release() {
	if g.steps != nil {
		stepPool.Put(g.steps)
		g.steps = nil
	}
}

// ban excludes the given host indices from every candidate the generator
// emits (choicesFor) or accepts (validate). Out-of-range indices are
// ignored; an empty list leaves the generator untouched.
func (g *generator) ban(hosts []int) {
	if len(hosts) == 0 {
		return
	}
	b := newBitset(g.nHosts)
	any := false
	for _, h := range hosts {
		if h >= 0 && h < g.nHosts {
			b.set(h)
			any = true
		}
	}
	if any {
		g.banned = b
	}
}

// choicesFor fills g.choices with the hosts operator v may be placed on,
// in increasing host order, given that every upstream of v is placed in p
// and has a current g.visited set. The three Figure 5 rules:
//
//  1. co-location of multiple operators on one host is allowed,
//  2. along the data flow, host capability bins never decrease,
//  3. once the data flow leaves a host, it never returns to it.
//
// The revisit rule is applied per upstream, exactly as Valid checks it:
// staying on an immediate upstream's host is fine for that branch
// (the flow never left it), but a host any *other* inbound branch has
// already left is banned even when one branch still sits on it. The
// original map-based draw code exempted such hosts globally and could
// emit placements Valid rejects on fan-in (join) operators.
func (g *generator) choicesFor(p sim.Placement, v int) []int {
	minBin := hardware.BinEdge
	for _, u := range g.topo.Ups(v) {
		if b := g.k.Bin(p[u]); b > minBin {
			minBin = b
		}
	}
	g.choices = g.choices[:0]
	for h := 0; h < g.nHosts; h++ {
		if g.k.Bin(h) < minBin {
			continue
		}
		if g.banned != nil && g.banned.has(h) {
			continue
		}
		ok := true
		for _, u := range g.topo.Ups(v) {
			if p[u] != h && g.visited[u].has(h) {
				ok = false
				break
			}
		}
		if ok {
			g.choices = append(g.choices, h)
		}
	}
	return g.choices
}

// place assigns host h to operator v and refreshes v's visited set from
// its upstreams (which must be current).
func (g *generator) place(p sim.Placement, v, h int) {
	p[v] = h
	vis := g.visited[v]
	vis.clear()
	vis.set(h)
	for _, u := range g.topo.Ups(v) {
		vis.orWith(g.visited[u])
	}
}

// replay refreshes the visited scratch for the placement prefix covering
// the first d topological positions of p.
func (g *generator) replay(p sim.Placement, d int) {
	for t := 0; t < d; t++ {
		v := g.topo.Order()[t]
		g.place(p, v, p[v])
	}
}

// tryDraw attempts one random placement draw. The returned slice is
// generator scratch: copy before retaining. The host-choice scan order and
// rng consumption are identical to the original map-based implementation,
// so draws are bit-for-bit reproducible against it for any seed.
func (g *generator) tryDraw(rng *rand.Rand) (sim.Placement, bool) {
	p := g.scratch
	for i := range p {
		p[i] = -1
	}
	for _, v := range g.topo.Order() {
		choices := g.choicesFor(p, v)
		if len(choices) == 0 {
			return nil, false
		}
		g.place(p, v, choices[rng.Intn(len(choices))])
	}
	return p, true
}

// randomValidAttempts bounds the dead-end retries of one random draw.
const randomValidAttempts = 64

// randomValid draws one valid placement, retrying dead ends. The returned
// slice is generator scratch: copy before retaining.
func (g *generator) randomValid(rng *rand.Rand) (sim.Placement, bool) {
	for a := 0; a < randomValidAttempts; a++ {
		if p, ok := g.tryDraw(rng); ok {
			return p, true
		}
	}
	return nil, false
}

// validate reports whether p satisfies the Figure 5 rules and avoids
// every banned host.
func (g *generator) validate(p sim.Placement) bool {
	if p.Validate(g.q, g.k.Cluster()) != nil {
		return false
	}
	if g.banned != nil {
		for _, h := range p {
			if h >= 0 && h < g.nHosts && g.banned.has(h) {
				return false
			}
		}
	}
	for _, v := range g.topo.Order() {
		h := p[v]
		for _, u := range g.topo.Ups(v) {
			if g.k.Bin(p[u]) > g.k.Bin(h) {
				return false // capability decreased along the flow
			}
			if p[u] != h && g.visited[u].has(h) {
				return false // returned to a previously visited host
			}
		}
		g.place(p, v, h)
	}
	return true
}

// neighbors returns every valid placement one step from the valid
// placement p, as steps: first each move of one operator to another host
// (operator by operator, host by host), then each swap of two operators
// on different hosts (pair by pair). Moves follow from p's visited sets
// (see appendMoves); a swap changes two operators at once and is checked
// in full. The returned slice is generator scratch, valid until the next
// call.
func (g *generator) neighbors(p sim.Placement) []neighbor {
	n := len(p)
	if g.deny == nil {
		g.deny = newBitset(g.nHosts)
		g.desc = make([]bool, n)
		g.swapped = make(sim.Placement, n)
	}
	if g.steps == nil {
		g.steps = stepPool.Get().(*[]neighbor)
	}
	g.replay(p, n)
	out := (*g.steps)[:0]
	for v := 0; v < n; v++ {
		out = g.appendMoves(out, p, v)
	}
	tmp := g.swapped
	copy(tmp, p)
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if tmp[v] == tmp[w] {
				continue
			}
			tmp[v], tmp[w] = tmp[w], tmp[v]
			if g.validate(tmp) {
				out = append(out, neighbor{v: v, x: w, swap: true})
			}
			tmp[v], tmp[w] = tmp[w], tmp[v]
		}
	}
	*g.steps = out
	return out
}

// appendMoves appends, host by host, every valid move of operator v of the
// valid placement p, whose visited sets g.visited must hold. Moving v to
// host h can break only these rules; every other edge keeps its hosts and
// a visited set that at most lost p[v] and gained h:
//
//   - h is not banned;
//   - bins do not decrease from any upstream u into h, nor from h into any
//     downstream w;
//   - h is not a host an upstream's flow has left (in visited[u] but not
//     p[u]);
//   - v's inbound flow must not have visited a downstream's host p[w]:
//     valid p then co-locates v with w, and any other host for v would
//     send the flow back to p[w], so v has no move;
//   - h joins the visited set of every strict descendant x of v, so it is
//     not the host of any x→w edge that leaves p[x].
func (g *generator) appendMoves(out []neighbor, p sim.Placement, v int) []neighbor {
	deny := g.deny
	if g.banned != nil {
		copy(deny, g.banned)
	} else {
		deny.clear()
	}
	lo, hi := hardware.BinEdge, hardware.BinCloud
	for _, u := range g.topo.Ups(v) {
		lo = max(lo, g.k.Bin(p[u]))
		deny.orWithout(g.visited[u], p[u])
	}
	for _, w := range g.topo.Downs(v) {
		hw := p[w]
		hi = min(hi, g.k.Bin(hw))
		for _, u := range g.topo.Ups(v) {
			if g.visited[u].has(hw) {
				return out
			}
		}
	}
	g.markDescendants(v)
	for _, e := range g.q.Edges {
		if g.desc[e[0]] && p[e[0]] != p[e[1]] {
			deny.set(p[e[1]])
		}
	}
	for h := 0; h < g.nHosts; h++ {
		if h == p[v] || g.k.Bin(h) < lo || g.k.Bin(h) > hi || deny.has(h) {
			continue
		}
		out = append(out, neighbor{v: v, x: h})
	}
	return out
}

// markDescendants sets g.desc to the strict descendants of operator v.
func (g *generator) markDescendants(v int) {
	for _, x := range g.topo.Order() {
		g.desc[x] = false
		for _, u := range g.topo.Ups(x) {
			if u == v || g.desc[u] {
				g.desc[x] = true
				break
			}
		}
	}
}

// completeGreedy extends the placement prefix covering the first d
// topological positions of p into a full valid placement: each remaining
// operator stays on its most capable immediate-upstream host (co-location,
// zero network cost), and operators without upstreams (later sources) take
// the most capable valid host. The input is not modified; the result is
// freshly allocated. Completion fails only when the prefix has painted the
// remaining flow into a corner (every admissible host already visited).
func (g *generator) completeGreedy(p sim.Placement, d int) (sim.Placement, bool) {
	copy(g.comp, p)
	g.replay(g.comp, d)
	for _, v := range g.topo.Order()[d:] {
		choices := g.choicesFor(g.comp, v)
		if len(choices) == 0 {
			return nil, false
		}
		g.place(g.comp, v, g.greedyPick(g.comp, v, choices))
	}
	return append(sim.Placement(nil), g.comp...), true
}

// greedyPick selects the completion host for v: the most capable
// immediate-upstream host still admissible (co-location), else the most
// capable valid choice. Ties break toward the lower host index, keeping
// completion fully deterministic.
func (g *generator) greedyPick(p sim.Placement, v int, choices []int) int {
	best := -1
	for _, u := range g.topo.Ups(v) {
		h := p[u]
		if best < 0 || g.k.Score(h) > g.k.Score(best) || (g.k.Score(h) == g.k.Score(best) && h < best) {
			best = h
		}
	}
	if best >= 0 {
		for _, h := range choices {
			if h == best {
				return h
			}
		}
	}
	best = choices[0]
	for _, h := range choices[1:] {
		if g.k.Score(h) > g.k.Score(best) {
			best = h
		}
	}
	return best
}

// RandomValid draws one placement satisfying the three heuristic rules of
// Figure 5 (see generator.choicesFor). It retries on dead ends and reports
// an error when the cluster cannot satisfy the rules for this query.
func RandomValid(rng *rand.Rand, a *stream.Analysis, k hardware.Checked) (sim.Placement, error) {
	g := newGenerator(a.Query(), a.Topo, k)
	if p, ok := g.randomValid(rng); ok {
		return append(sim.Placement(nil), p...), nil
	}
	return nil, fmt.Errorf("placement: no valid placement found for %d ops on %d hosts",
		len(g.q.Ops), g.nHosts)
}

// Valid reports whether a placement satisfies the Figure 5 rules.
func Valid(a *stream.Analysis, k hardware.Checked, p sim.Placement) bool {
	return newGenerator(a.Query(), a.Topo, k).validate(p)
}
