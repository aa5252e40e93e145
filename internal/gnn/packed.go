package gnn

import (
	"fmt"
	"slices"

	"costream/internal/nn"
)

// PackedGraphs is the packed form of one scoring round's candidate tile:
// C placements of one operator graph, sharing its operator nodes, flow
// edges and message-passing Plan, reduced to flat index tables so a
// StackedModel can advance all C candidates × k members per kernel call
// instead of one graph at a time. The tables describe the graph
// Featurizer.BuildGraph builds for each candidate — one host node per
// distinct host in first-use order, one placement edge per operator in
// operator order — without building it. Host nodes, the only
// per-candidate part, are flattened into "slots": slot s belongs to
// candidate c when hostOff[c] <= s < hostOff[c+1], in the candidate's
// node-index order.
//
// The candidates of a search round are near-copies of each other, so the
// tables number every row of the pass by what it is computed from and the
// kernels run each distinct row once for the whole tile:
//
//   - encoder: slots on the same host index share a host row;
//   - phase 1: slots with the same host row and the same child operators
//     form one placement group (children are in operator order, which is
//     the order the scalar pass sums them in);
//   - phase 2: one row per (placement group, child operator);
//   - phase 3: per step of the flow order, one row per distinct (phase-2
//     row of the operator, phase-3 rows of its parents).
//
// Every kernel is row-independent with a fixed per-row accumulation
// order, so a shared row holds exactly the bits each candidate's own row
// would. The tables are structure only: one packing serves every
// ensemble that scores the tile. Operator states of all phases live in
// one plane of rows — the nOps shared encodings, then the phase-2 rows,
// then the phase-3 rows — and opRow names each candidate's final row per
// operator; a tile of one runs the same code with one group per slot.
//
// The zero value is ready to use, and Pack re-fills the tables without
// reallocating once their capacities have grown.
type PackedGraphs struct {
	ops  []Node // the shared operator nodes
	plan *Plan
	c    int // number of candidates
	nOps int // operator nodes shared by every candidate

	opsByKind [numKinds][]int // operator node indices grouped by kind

	hostOff  []int       // len c+1: per-candidate host-slot ranges
	slotHost []int       // per-slot host index
	opSlot   []int       // c×nOps: the slot of (cand, op)'s host
	hostRow  []int       // per-slot row among the tile's distinct hosts
	rowHost  []int       // per distinct host row: its host index
	rowFeat  [][]float64 // per distinct host row: its feature vector (read-only)
	kidsOff  []int       // len hostOff[c]+1: per-slot child-list ranges
	kids     []int       // flattened child operator indices, operator order
	kidCur   []int       // per-slot cursors (scratch for the passes over children)

	slotGroup []int // per-slot placement group
	groupSlot []int // per placement group: the first slot carrying it

	// Phase-2 rows, grouped by operator kind (one update network each):
	// rows placedOff[kind]..placedOff[kind+1] update operators of that kind.
	placedOff   [numKinds + 1]int
	placedGroup []int // per phase-2 row: the placement group it reads
	placedOp    []int // per phase-2 row: the operator it updates
	kidRow      []int // per kids entry of a group's first slot: its phase-2 row

	// Phase-3 rows, grouped by step of plan.order: rows
	// flowOff[t]..flowOff[t+1] update operator plan.order[t].
	flowOff []int
	flowOwn []int // per phase-3 row: the operator's own phase-2 plane row
	flowUps []int // per phase-3 row: its parents' plane rows, in flow-edge order

	opRow []int // c×nOps: plane row of (cand, op)'s final state
}

// PhaseRows counts the kernel rows of one message-passing phase of a
// packed tile: Requested is what its candidates ask for — one row per
// node a candidate updates in that phase, which is what scoring each
// candidate alone runs — and Computed the distinct rows the packed pass
// runs instead.
type PhaseRows struct{ Requested, Computed int }

// Rows returns the row counts of the packing: phase 1 (one request per
// host slot), phase 2 (one per placement edge) and phase 3 (one per
// candidate and operator with upstream operators), in that order. A tile
// of distinct-everywhere candidates — a tile of one — computes what it
// requests.
func (pg *PackedGraphs) Rows() [3]PhaseRows {
	steps := 0
	for _, v := range pg.plan.order {
		if len(pg.plan.flow.Ups(v)) > 0 {
			steps++
		}
	}
	return [3]PhaseRows{
		{pg.hostOff[pg.c], len(pg.groupSlot)},
		{len(pg.kids), len(pg.placedOp)},
		{pg.c * steps, len(pg.flowOwn)},
	}
}

// Pack packs a tile of placements of the operator graph ops, whose
// message-passing plan is plan, into pg. placements[c][v] is the host of
// operator v in candidate c, one of hosts 0..nHosts-1, and host(h)
// returns host h's feature vector, which pg keeps and treats as
// read-only; host is called once per distinct host of the tile. A nil
// host packs candidates without host nodes (query-only featurization):
// placements then only count the candidates. A placement of the wrong
// length or onto a host outside the range is an error.
func (pg *PackedGraphs) Pack(ops *Graph, plan *Plan, nHosts int, host func(h int) []float64, placements [][]int) error {
	nOps, c := len(ops.Nodes), len(placements)
	switch {
	case c == 0:
		return fmt.Errorf("gnn: packing zero candidates")
	case nOps == 0:
		return fmt.Errorf("gnn: packing a graph without operator nodes")
	case len(plan.order) != nOps:
		return fmt.Errorf("gnn: plan orders %d operators, the graph has %d", len(plan.order), nOps)
	}
	pg.ops, pg.plan, pg.c, pg.nOps = ops.Nodes, plan, c, nOps
	for kind := range pg.opsByKind {
		pg.opsByKind[kind] = pg.opsByKind[kind][:0]
	}
	for i, nd := range ops.Nodes {
		pg.opsByKind[nd.Kind] = append(pg.opsByKind[nd.Kind], i)
	}

	// Host slots in first-use order per candidate, and host rows in
	// first-use order over the tile.
	pg.hostOff = nn.Grow(pg.hostOff, c+1)
	pg.hostOff[0] = 0
	pg.slotHost = pg.slotHost[:0]
	pg.hostRow = pg.hostRow[:0]
	pg.rowHost = pg.rowHost[:0]
	pg.rowFeat = pg.rowFeat[:0]
	pg.opSlot = nn.Grow(pg.opSlot, c*nOps)
	for ci, p := range placements {
		if host == nil {
			pg.hostOff[ci+1] = 0
			continue
		}
		if len(p) != nOps {
			return fmt.Errorf("gnn: candidate %d places %d operators, the graph has %d", ci, len(p), nOps)
		}
		off := pg.hostOff[ci]
		for v, h := range p {
			if h < 0 || h >= nHosts {
				return fmt.Errorf("gnn: candidate %d places operator %d on host %d, outside 0..%d", ci, v, h, nHosts-1)
			}
			s := off + slices.Index(pg.slotHost[off:], h)
			if s < off {
				s = len(pg.slotHost)
				pg.slotHost = append(pg.slotHost, h)
				pg.hostRow = append(pg.hostRow, pg.distinctRow(h, host))
			}
			pg.opSlot[ci*nOps+v] = s
		}
		pg.hostOff[ci+1] = len(pg.slotHost)
	}

	// CSR build of the per-slot child-operator lists: count, prefix-sum,
	// fill in operator order, which is the child summation order of the
	// scalar pass (bit-identity depends on it).
	hTot := len(pg.slotHost)
	totalKids := 0
	if hTot > 0 {
		totalKids = c * nOps
	}
	pg.kidsOff = nn.Grow(pg.kidsOff, hTot+1)
	clear(pg.kidsOff)
	for _, s := range pg.opSlot[:totalKids] {
		pg.kidsOff[s+1]++
	}
	for s := 0; s < hTot; s++ {
		pg.kidsOff[s+1] += pg.kidsOff[s]
	}
	pg.kids = nn.Grow(pg.kids, totalKids)
	pg.kidCur = nn.Grow(pg.kidCur, hTot)
	copy(pg.kidCur, pg.kidsOff)
	for i, s := range pg.opSlot[:totalKids] {
		pg.kids[pg.kidCur[s]] = i % nOps
		pg.kidCur[s]++
	}

	// Phase 1: one placement group per distinct (host row, child list).
	pg.slotGroup = nn.Grow(pg.slotGroup, hTot)
	pg.groupSlot = pg.groupSlot[:0]
	for s := 0; s < hTot; s++ {
		pg.slotGroup[s] = pg.placementGroup(s)
	}

	// Phase 2: one row per (group, child), bucketed by the child's kind —
	// count, prefix-sum, fill, in group order within a kind.
	pg.placedOff = [numKinds + 1]int{}
	for _, first := range pg.groupSlot {
		for _, v := range pg.kids[pg.kidsOff[first]:pg.kidsOff[first+1]] {
			pg.placedOff[ops.Nodes[v].Kind+1]++
		}
	}
	for kind := range pg.opsByKind {
		pg.placedOff[kind+1] += pg.placedOff[kind]
	}
	nPlaced := pg.placedOff[numKinds]
	pg.placedGroup = nn.Grow(pg.placedGroup, nPlaced)
	pg.placedOp = nn.Grow(pg.placedOp, nPlaced)
	pg.kidRow = nn.Grow(pg.kidRow, totalKids)
	cur := pg.placedOff
	for grp, first := range pg.groupSlot {
		for i := pg.kidsOff[first]; i < pg.kidsOff[first+1]; i++ {
			v := pg.kids[i]
			row := cur[ops.Nodes[v].Kind]
			cur[ops.Nodes[v].Kind]++
			pg.placedGroup[row], pg.placedOp[row], pg.kidRow[i] = grp, v, row
		}
	}
	// An operator's state after phase 2 is its encoder row (plane row v)
	// when it has no host, else the row of its placement edge: child j of
	// a slot reads the row of child j of the slot's group.
	pg.opRow = nn.Grow(pg.opRow, c*nOps)
	for i := range pg.opRow {
		pg.opRow[i] = i % nOps
	}
	copy(pg.kidCur, pg.kidsOff)
	for i, s := range pg.opSlot[:totalKids] {
		first := pg.groupSlot[pg.slotGroup[s]]
		pg.opRow[i] = nOps + pg.kidRow[pg.kidsOff[first]+pg.kidCur[s]-pg.kidsOff[s]]
		pg.kidCur[s]++
	}

	// Phase 3, step by step along the flow order: candidates whose operator
	// reads the same own row and the same parent rows share the step's row.
	// Parents precede their children in plan.order, so opRow already holds
	// their final rows; sources keep their phase-2 row.
	pg.flowOff = nn.Grow(pg.flowOff, len(plan.order)+1)
	pg.flowOff[0] = 0
	pg.flowOwn = pg.flowOwn[:0]
	pg.flowUps = pg.flowUps[:0]
	for t, v := range plan.order {
		parents := plan.flow.Ups(v)
		if len(parents) > 0 {
			lo, upLo := pg.flowOff[t], len(pg.flowUps)
			for ci := range c {
				rows := pg.opRow[ci*nOps : (ci+1)*nOps]
				rows[v] = nOps + nPlaced + pg.flowRow(lo, upLo, rows, v, parents)
			}
		}
		pg.flowOff[t+1] = len(pg.flowOwn)
	}
	return nil
}

// placementGroup returns the placement group of slot s, whose host row
// and child list are already packed: the group of an earlier slot with
// the same host row and the same children in the same order, or a new
// one.
func (pg *PackedGraphs) placementGroup(s int) int {
	row, kids := pg.hostRow[s], pg.kids[pg.kidsOff[s]:pg.kidsOff[s+1]]
	for grp, first := range pg.groupSlot {
		if pg.hostRow[first] == row && slices.Equal(pg.kids[pg.kidsOff[first]:pg.kidsOff[first+1]], kids) {
			return grp
		}
	}
	pg.groupSlot = append(pg.groupSlot, s)
	return len(pg.groupSlot) - 1
}

// flowRow returns the phase-3 row of operator v for the candidate whose
// plane rows are rows: a row of the current step (rows lo.. of flowOwn,
// parent lists from upLo of flowUps) with the same own and parent rows,
// or a new one.
func (pg *PackedGraphs) flowRow(lo, upLo int, rows []int, v int, parents []int) int {
	np := len(parents)
next:
	for r := lo; r < len(pg.flowOwn); r++ {
		if pg.flowOwn[r] != rows[v] {
			continue
		}
		for i, up := range pg.flowUps[upLo+(r-lo)*np : upLo+(r-lo+1)*np] {
			if up != rows[parents[i]] {
				continue next
			}
		}
		return r
	}
	pg.flowOwn = append(pg.flowOwn, rows[v])
	for _, p := range parents {
		pg.flowUps = append(pg.flowUps, rows[p])
	}
	return len(pg.flowOwn) - 1
}

// distinctRow returns the encoder row of host h: the row of an earlier
// slot of the tile on the same host, or a new one carrying host(h).
func (pg *PackedGraphs) distinctRow(h int, host func(int) []float64) int {
	if row := slices.Index(pg.rowHost, h); row >= 0 {
		return row
	}
	pg.rowHost = append(pg.rowHost, h)
	pg.rowFeat = append(pg.rowFeat, host(h))
	return len(pg.rowHost) - 1
}

// BatchScratch holds the reusable buffers of a packed multi-candidate
// forward pass: the operator and host state planes, one row per distinct
// row of the tile (see PackedGraphs), and the gather/concat staging
// blocks. One BatchScratch serves one goroutine; a nil scratch is accepted
// and allocates fresh buffers.
type BatchScratch struct {
	ops      []float64 // (nOps + phase-2 rows + phase-3 rows) × (k·H) operator states
	hostEnc  []float64 // distinct hosts × (k·H) encoder outputs
	hostNext []float64 // placement groups × (k·H) phase-1 (= final) host states
	gather   []float64 // rows × featDim encoder inputs
	cat      []float64 // rows × (k·2H) update inputs
	tmp      []float64 // rows × (k·H) kernel outputs
	agg      []float64 // C × (k·H) readout accumulators

	dense nn.DenseScratch
}

// NewBatchScratch returns an empty scratch; its buffers grow on first use
// and are reused afterwards.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// checkBatch runs the per-node encoder checks of a packed pass (Pack
// checked the placements).
func (sm *StackedModel) checkBatch(pg *PackedGraphs) error {
	for kind := range pg.opsByKind {
		idxs := pg.opsByKind[kind]
		if len(idxs) == 0 {
			continue
		}
		enc, ok := sm.enc[NodeKind(kind)]
		if !ok {
			return fmt.Errorf("gnn: no encoder for kind %v", NodeKind(kind))
		}
		for _, idx := range idxs {
			if len(pg.ops[idx].Feat) != enc.InDim() {
				return fmt.Errorf("gnn: node %d (%v) has %d features, encoder wants %d",
					idx, NodeKind(kind), len(pg.ops[idx].Feat), enc.InDim())
			}
		}
	}
	if len(pg.rowFeat) > 0 {
		enc, ok := sm.enc[KindHost]
		if !ok {
			return fmt.Errorf("gnn: no encoder for kind %v", KindHost)
		}
		for row, f := range pg.rowFeat {
			if len(f) != enc.InDim() {
				return fmt.Errorf("gnn: host %d has %d features, encoder wants %d",
					pg.rowHost[row], len(f), enc.InDim())
			}
		}
	}
	return nil
}

// InferEnsembleBatch runs one forward pass for all C packed candidates and
// all k members at once, writing the raw member outputs candidate-major
// into out (len C·k: candidate c's member m lands at out[c·k+m]). Each
// phase is one loop over the tile's distinct rows (see PackedGraphs), so
// what a round's candidates have in common — a host with the same
// operators on it, an upstream part of the flow placed the same way — is
// computed once. Every value is bit-identical to Model.ForwardPlanned on
// an inference tape, per member on the candidate's own graph: all kernels
// are row-independent with a fixed per-row accumulation order, so
// batching rows across candidates, or reading a row another candidate
// shares — or neither, at C = 1 — cannot change any result.
func (sm *StackedModel) InferEnsembleBatch(pg *PackedGraphs, s *BatchScratch, out []float64) error {
	c, nOps := pg.c, pg.nOps
	if len(out) != c*sm.k {
		return fmt.Errorf("gnn: output buffer holds %d values, want %d candidates x %d members", len(out), c, sm.k)
	}
	if err := sm.checkBatch(pg); err != nil {
		return err
	}
	if s == nil {
		s = NewBatchScratch()
	}
	H := sm.cfg.Hidden
	kH := sm.k * H
	k2H := sm.k * 2 * H
	nPlaced := len(pg.placedOp)

	// Encode the shared operator prefix once for every candidate, one
	// matrix-matrix pass per node kind (features shared across members),
	// into the first nOps rows of the operator plane.
	s.ops = nn.Grow(s.ops, (nOps+nPlaced+len(pg.flowOwn))*kH)
	for kind := range pg.opsByKind {
		idxs := pg.opsByKind[kind]
		if len(idxs) == 0 {
			continue
		}
		enc := sm.enc[NodeKind(kind)]
		in := enc.InDim()
		s.gather = nn.Grow(s.gather, len(idxs)*in)
		for r, idx := range idxs {
			copy(s.gather[r*in:(r+1)*in], pg.ops[idx].Feat)
		}
		s.tmp = nn.Grow(s.tmp, len(idxs)*kH)
		enc.ForwardShared(s.tmp, s.gather, len(idxs), &s.dense)
		for r, idx := range idxs {
			copy(s.ops[idx*kH:(idx+1)*kH], s.tmp[r*kH:(r+1)*kH])
		}
	}

	// Encode the tile's distinct hosts and run phase 1 (operators ->
	// hardware) once per placement group: a host's phase-1 state is also
	// its final state (phases 2 and 3 only write operators).
	if nGroups := len(pg.groupSlot); nGroups > 0 {
		enc := sm.enc[KindHost]
		in := enc.InDim()
		nUniq := len(pg.rowFeat)
		s.gather = nn.Grow(s.gather, nUniq*in)
		for row, f := range pg.rowFeat {
			copy(s.gather[row*in:(row+1)*in], f)
		}
		s.hostEnc = nn.Grow(s.hostEnc, nUniq*kH)
		enc.ForwardShared(s.hostEnc, s.gather, nUniq, &s.dense)

		s.cat = nn.Grow(s.cat, nGroups*k2H)
		for grp, slot := range pg.groupSlot {
			kids := pg.kids[pg.kidsOff[slot]:pg.kidsOff[slot+1]]
			catRow(s.cat[grp*k2H:(grp+1)*k2H], kids, pg.hostRow[slot], sm.k, H, s.ops, s.hostEnc)
		}
		s.hostNext = nn.Grow(s.hostNext, nGroups*kH)
		sm.upd[KindHost].ForwardBlocks(s.hostNext, s.cat, nGroups, &s.dense)
	}

	// Phase 2 (hardware -> operators): one row per (placement group, child
	// operator), one kernel call per operator kind, written straight into
	// the plane. Operators without a placement edge keep their encoder row.
	for kind := range pg.opsByKind {
		lo, hi := pg.placedOff[kind], pg.placedOff[kind+1]
		if lo == hi {
			continue
		}
		s.cat = nn.Grow(s.cat, (hi-lo)*k2H)
		for r := lo; r < hi; r++ {
			catRow(s.cat[(r-lo)*k2H:(r-lo+1)*k2H], pg.placedGroup[r:r+1], pg.placedOp[r], sm.k, H, s.hostNext, s.ops)
		}
		sm.upd[NodeKind(kind)].ForwardBlocks(s.ops[(nOps+lo)*kH:(nOps+hi)*kH], s.cat, hi-lo, &s.dense)
	}

	// Phase 3 (sources -> ... -> sink): inherently sequential along the
	// flow order, but each step advances every distinct (own row, parent
	// rows) of the tile x k members in one kernel call.
	up := 0
	for t, v := range pg.plan.order {
		lo, hi := pg.flowOff[t], pg.flowOff[t+1]
		if lo == hi {
			continue // sources send but do not receive in this phase
		}
		np := len(pg.plan.flow.Ups(v))
		s.cat = nn.Grow(s.cat, (hi-lo)*k2H)
		for r := lo; r < hi; r++ {
			catRow(s.cat[(r-lo)*k2H:(r-lo+1)*k2H], pg.flowUps[up:up+np], pg.flowOwn[r], sm.k, H, s.ops, s.ops)
			up += np
		}
		first := nOps + nPlaced + lo
		sm.upd[pg.ops[v].Kind].ForwardBlocks(s.ops[first*kH:(first+hi-lo)*kH], s.cat, hi-lo, &s.dense)
	}

	// Readout: per candidate, the per-member sum over node states in node
	// order — operators first, then the candidate's hosts in slot order
	// (their first-use node order) — then one stacked output pass of C
	// rows.
	s.agg = nn.Grow(s.agg, c*kH)
	for ci := 0; ci < c; ci++ {
		agg := s.agg[ci*kH : (ci+1)*kH]
		rows := pg.opRow[ci*nOps : (ci+1)*nOps]
		copy(agg, s.ops[rows[0]*kH:(rows[0]+1)*kH])
		for _, row := range rows[1:] {
			for i, x := range s.ops[row*kH : (row+1)*kH] {
				agg[i] += x
			}
		}
		for _, grp := range pg.slotGroup[pg.hostOff[ci]:pg.hostOff[ci+1]] {
			for i, x := range s.hostNext[grp*kH : (grp+1)*kH] {
				agg[i] += x
			}
		}
	}
	sm.out.ForwardBlocks(out, s.agg, c, &s.dense)
	return nil
}
