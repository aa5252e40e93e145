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
	chunk := newBatch(randomChunk, co.Query().NumOps())
	pending := newCandIndex(randomChunk) // the chunk's draws
	flush := func() {
		if len(chunk.list) > 0 {
			co.ScoreRound(chunk.list)
			chunk.reset()
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
		i, slot := pending.lookup(chunk.list, p)
		if i >= 0 || co.Seen(p) {
			misses++
			continue
		}
		pending.add(slot, len(chunk.list))
		chunk.add(p)
		drawn++
		if len(chunk.list) >= randomChunk {
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
	chunk := newBatch(exhaustiveChunk, n)
	emitted := 0
	// choicesFor returns generator scratch reused by deeper levels; one
	// reusable buffer per depth keeps the DFS allocation-free.
	choiceBufs := make([][]int, n)
	var dfs func(d int) bool // false aborts the enumeration
	dfs = func(d int) bool {
		if d == n {
			chunk.add(p)
			emitted++
			if len(chunk.list) >= exhaustiveChunk {
				co.ScoreRound(chunk.list)
				chunk.reset()
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
	if len(chunk.list) > 0 {
		co.ScoreRound(chunk.list)
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
	// A depth's children are cut from one buffer and their completions
	// from another, both reused by later depths: the completions once the
	// round has copied them, the children from the buffer the depth's
	// entries were not cut from.
	var childBuf, entryBuf, compBuf []int
	var partials, comps []sim.Placement
	var idx []int
	for d := 0; d < n && !co.Exhausted(); d++ {
		// Spread the remaining candidate budget over the remaining
		// depths so early rounds cannot starve the later, more decisive
		// ones. Entries are ranked best-first, so truncating keeps the
		// expansions of the most promising partials.
		quota := co.Remaining() / (n - d)
		if quota < width {
			quota = width
		}
		partials, comps = partials[:0], comps[:0]
		childBuf, entryBuf = entryBuf[:0], childBuf
		compBuf = compBuf[:0]
	expand:
		for _, e := range entries {
			choiceBuf = co.PrefixChoices(choiceBuf[:0], e, d)
			for _, h := range choiceBuf {
				if len(comps) >= quota {
					break expand
				}
				childBuf = append(childBuf, e...)
				child := sim.Placement(childBuf[len(childBuf)-n : len(childBuf) : len(childBuf)])
				child[order[d]] = h
				comp, ok := co.gen.completeGreedy(compBuf, child, d+1)
				if !ok {
					childBuf = childBuf[:len(childBuf)-n]
					continue
				}
				compBuf = comp
				partials = append(partials, child)
				comps = append(comps, compBuf[len(compBuf)-n:len(compBuf):len(compBuf)])
			}
		}
		if len(partials) == 0 {
			break
		}
		scored := co.ScoreRound(comps)
		idx = idx[:0]
		for i := range partials {
			idx = append(idx, i)
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return scored[idx[a]].betterThan(&scored[idx[b]])
		})
		if len(idx) > width {
			idx = idx[:width]
		}
		entries = entries[:0]
		for _, i := range idx {
			entries = append(entries, partials[i])
		}
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
	n := co.Query().NumOps()
	blank := make(sim.Placement, n)
	for i := range blank {
		blank[i] = -1
	}
	round := make([]sim.Placement, 0, 1+localNeighborCap)
	// Every climb's start is written into one buffer: the round that
	// scores it keeps a copy.
	startBuf := make(sim.Placement, 0, n)
	for r := 0; !co.Exhausted(); r++ {
		before := co.Examined()
		var start sim.Placement
		if r == 0 {
			if len(ls.Start) > 0 && co.ValidPlacement(ls.Start) {
				start = append(startBuf[:0], ls.Start...)
			} else {
				// The first climb starts from the deterministic greedy
				// completion — a strong, budget-free seed.
				start, _ = co.gen.completeGreedy(startBuf[:0], blank, 0)
			}
		}
		if start == nil {
			p, ok := co.RandomPlacement()
			if !ok {
				// No drawable start: stop; an entirely fruitless run
				// surfaces as the core's no-candidates error.
				break
			}
			start = append(startBuf[:0], p...)
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
