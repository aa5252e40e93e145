package placement

import (
	"math/rand"
	"slices"
	"sort"

	"costream/internal/sim"
)

// Streaming batch sizes: RandomSample scores its draws and Exhaustive its
// enumeration in chunks, so large budgets do not materialize every
// candidate up front.
const (
	randomChunk     = 64
	exhaustiveChunk = 128
)

// LocalSearch's climb: localPatience consecutive non-improving rounds
// trigger a restart, and a round scores at most localNeighborCap
// neighbors.
const (
	localPatience    = 2
	localNeighborCap = 64
)

// RandomSample is the paper's baseline strategy: k distinct random valid
// placements, scored, sanity-filtered, best one kept. For a given seed and
// candidate budget k it examines the first k distinct placements that
// RandomValid draws from a rng of that seed, giving up after 8k+64
// duplicate or dead-end draws.
type RandomSample struct{}

// Name implements Strategy.
func (RandomSample) Name() string { return "random" }

// Run implements Strategy.
func (RandomSample) Run(co *Core) error {
	k := co.Remaining()
	pending := make(map[string]bool, randomChunk)
	var key []byte
	chunk := make([]sim.Placement, 0, randomChunk)
	flush := func() {
		if len(chunk) > 0 {
			co.ScoreRound(chunk)
			chunk = chunk[:0]
			clear(pending)
		}
	}
	drawn, misses := 0, 0
	for drawn < k && misses < 8*k+64 && !co.Exhausted() {
		p, ok := co.RandomPlacement()
		if !ok {
			misses++
			continue
		}
		key = appendPlacementKey(key[:0], p)
		if pending[string(key)] || co.Seen(p) {
			misses++
			continue
		}
		pending[string(key)] = true
		chunk = append(chunk, append(sim.Placement(nil), p...))
		drawn++
		if len(chunk) >= randomChunk {
			flush()
		}
	}
	flush()
	// A fruitless run falls through to the core, which reports the
	// no-candidates error.
	return nil
}

// Exhaustive enumerates the complete valid-placement space in depth-first
// topological order with rule-based pruning, streaming chunks into the
// scoring core. Generation stops as soon as the budget is exhausted, so
// the strategy is safe on large spaces (the budget is the hard cap); when
// the whole space fits the budget, the result is provably optimal under
// the predictor and SearchResult.Complete is set.
type Exhaustive struct{}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

// Run implements Strategy.
func (Exhaustive) Run(co *Core) error {
	n := co.Query().NumOps()
	order := co.TopoOrder()
	g := co.gen
	p := make(sim.Placement, n)
	for i := range p {
		p[i] = -1
	}
	chunk := make([]sim.Placement, 0, exhaustiveChunk)
	emitted := 0
	// choicesFor returns generator scratch reused by deeper levels; one
	// reusable buffer per depth keeps the DFS allocation-free.
	choiceBufs := make([][]int, n)
	var dfs func(d int) bool // false aborts the enumeration
	dfs = func(d int) bool {
		if d == n {
			chunk = append(chunk, append(sim.Placement(nil), p...))
			emitted++
			if len(chunk) >= exhaustiveChunk {
				co.ScoreRound(chunk)
				chunk = chunk[:0]
				if co.Exhausted() {
					return false
				}
			}
			return true
		}
		v := order[d]
		choiceBufs[d] = append(choiceBufs[d][:0], g.choicesFor(p, v)...)
		for _, h := range choiceBufs[d] {
			g.place(p, v, h)
			if !dfs(d + 1) {
				return false
			}
		}
		p[v] = -1
		return true
	}
	covered := dfs(0)
	if len(chunk) > 0 {
		co.ScoreRound(chunk)
	}
	if covered && co.Examined() == emitted {
		// Every valid placement was generated and none fell past the
		// budget: the space is fully covered.
		co.MarkComplete()
	}
	return nil
}

// Beam constructs placements operator by operator in topological order,
// keeping the Width best partial placements per step. A partial placement
// is scored by greedily completing it (remaining operators co-locate onto
// their strongest upstream host) and predicting the completion's costs via
// the batched scoring core, so every round is one scoring round over the
// step's completions. Beam is fully deterministic (no randomness).
type Beam struct {
	// Width is the number of partial placements kept per step (default 8).
	Width int
}

// Name implements Strategy.
func (Beam) Name() string { return "beam" }

// Run implements Strategy.
func (b Beam) Run(co *Core) error {
	width := b.Width
	if width <= 0 {
		width = 8
	}
	n := co.Query().NumOps()
	order := co.TopoOrder()
	blank := make(sim.Placement, n)
	for i := range blank {
		blank[i] = -1
	}
	entries := []sim.Placement{blank}
	var choiceBuf []int
	for d := 0; d < n && !co.Exhausted(); d++ {
		// Spread the remaining candidate budget over the remaining
		// depths so early rounds cannot starve the later, more decisive
		// ones. Entries are ranked best-first, so truncating keeps the
		// expansions of the most promising partials.
		quota := co.Remaining() / (n - d)
		if quota < width {
			quota = width
		}
		var partials []sim.Placement
		var comps []sim.Placement
	expand:
		for _, e := range entries {
			choiceBuf = co.PrefixChoices(choiceBuf[:0], e, d)
			for _, h := range choiceBuf {
				if len(comps) >= quota {
					break expand
				}
				child := append(sim.Placement(nil), e...)
				child[order[d]] = h
				comp, ok := co.CompleteGreedy(child, d+1)
				if !ok {
					continue
				}
				partials = append(partials, child)
				comps = append(comps, comp)
			}
		}
		if len(partials) == 0 {
			break
		}
		scored := co.ScoreRound(comps)
		idx := make([]int, len(partials))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return scored[idx[a]].betterThan(&scored[idx[b]])
		})
		if len(idx) > width {
			idx = idx[:width]
		}
		next := make([]sim.Placement, 0, len(idx))
		for _, i := range idx {
			next = append(next, partials[i])
		}
		entries = next
	}
	return nil
}

// LocalSearch hill-climbs from valid starts: each round scores the
// neighborhood of the current placement (all valid single-operator moves
// and operator-pair swaps, subsampled deterministically above
// localNeighborCap) in one batch and moves to the best neighbor. A climb's
// first round holds its start together with the start's neighborhood,
// which depends only on the start's placement, so the start costs no round
// of its own. localPatience non-improving rounds in a row trigger a
// restart, until the budget runs out. The first start is the deterministic
// greedy completion (co-locate onto the most capable hosts); later
// restarts draw random valid placements.
type LocalSearch struct {
	// Start, when valid, replaces the greedy completion as the first
	// climb's starting placement — the warm-start hook used by WarmStart
	// to climb from an incumbent instead of from scratch.
	Start sim.Placement
}

// Name implements Strategy.
func (LocalSearch) Name() string { return "local-search" }

// Run implements Strategy.
func (ls LocalSearch) Run(co *Core) error {
	blank := make(sim.Placement, co.Query().NumOps())
	for i := range blank {
		blank[i] = -1
	}
	round := make([]sim.Placement, 0, 1+localNeighborCap)
	for r := 0; !co.Exhausted(); r++ {
		before := co.Examined()
		var start sim.Placement
		if r == 0 {
			if len(ls.Start) > 0 && co.ValidPlacement(ls.Start) {
				start = append(sim.Placement(nil), ls.Start...)
			} else {
				// The first climb starts from the deterministic greedy
				// completion — a strong, budget-free seed.
				start, _ = co.CompleteGreedy(blank, 0)
			}
		}
		if start == nil {
			p, ok := co.RandomPlacement()
			if !ok {
				// No drawable start: stop; an entirely fruitless run
				// surfaces as the core's no-candidates error.
				break
			}
			start = append(sim.Placement(nil), p...)
		}
		// A fresh start that takes the last of the budget leaves no room
		// for a neighbor: it is scored alone, and the neighborhood's
		// subsample draws nothing from the rng.
		round = append(round[:0], start)
		if co.Remaining() > 1 || co.Seen(start) {
			round = localNeighbors(co, start, round)
		}
		scored := co.ScoreRound(round)
		cur := scored[0]
		if cur.Skipped {
			break
		}
		neigh := scored[1:]
		for bad := 0; len(neigh) > 0; {
			if best := bestScored(neigh); best.betterThan(&cur) {
				cur = *best
				bad = 0
			} else if bad++; bad >= localPatience {
				break
			}
			if co.Exhausted() {
				break
			}
			neigh = co.ScoreRound(localNeighbors(co, cur.Placement, round[:0]))
		}
		if co.Examined() == before {
			// The whole restart hit only cached placements: the reachable
			// space is exhausted and further restarts cannot progress.
			break
		}
	}
	return nil
}

// bestScored returns the first of the best candidates of a non-empty
// round.
func bestScored(round []Scored) *Scored {
	best := &round[0]
	for i := 1; i < len(round); i++ {
		if round[i].betterThan(best) {
			best = &round[i]
		}
	}
	return best
}

// localNeighbors appends to dst the move/swap neighborhood of the valid
// placement p (generator.neighbors). Above localNeighborCap the steps are
// subsampled to localNeighborCap with the core rng (deterministic for a
// fixed seed): the first localNeighborCap entries of a permutation of the
// steps (permPrefix), kept in generation order for stable tie-breaks.
// Only the kept steps are built. The built placements are generator
// scratch, overwritten by the next call; ScoreRound copies what it keeps.
func localNeighbors(co *Core, p sim.Placement, dst []sim.Placement) []sim.Placement {
	g := co.gen
	steps := g.neighbors(p)
	n := len(p)
	if g.built == nil {
		g.built = make([]int, localNeighborCap*n)
		g.picks = make([]int, localNeighborCap)
	}
	var idx []int
	if len(steps) > localNeighborCap {
		idx = permPrefix(co.Rng(), len(steps), g.picks)
		slices.Sort(idx)
	}
	for i := 0; i < min(len(steps), localNeighborCap); i++ {
		s := steps[i]
		if idx != nil {
			s = steps[idx[i]]
		}
		nb := sim.Placement(g.built[i*n : (i+1)*n : (i+1)*n])
		copy(nb, p)
		if s.swap {
			nb[s.v], nb[s.x] = nb[s.x], nb[s.v]
		} else {
			nb[s.v] = s.x
		}
		dst = append(dst, nb)
	}
	return dst
}

// permPrefix fills m with the first min(len(m), n) entries of
// rng.Perm(n) and returns them, making exactly Perm's draws, so rng ends
// where Perm(n) leaves it. Perm's step i draws j = Intn(i+1) and sets
// m[i], m[j] = m[j], i; past the prefix, only a draw j inside it writes
// the prefix, so the other n-len(m) entries are never needed.
func permPrefix(rng *rand.Rand, n int, m []int) []int {
	m = m[:min(len(m), n)]
	k := len(m)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		if i < k {
			m[i] = m[j]
		}
		if j < k {
			m[j] = i
		}
	}
	return m
}
