package gnn

import (
	"fmt"
	"slices"

	"costream/internal/nn"
)

// PackedGraphs is the packed multi-graph form of one scoring round's
// candidate tile: C candidate graphs that share the operator-node prefix,
// the flow edges and the message-passing Plan (as produced by
// core.BatchFeaturizer), reduced to flat index tables so a StackedModel
// can advance all C candidates × k members per kernel call instead of one
// graph at a time. Host nodes — the only per-candidate part — are
// flattened into "slots": slot s belongs to candidate c when
// hostOff[c] <= s < hostOff[c+1], in the candidate's node-index order.
//
// The candidates of a search round are near-copies of each other, so the
// tables number every row of the pass by what it is computed from and the
// kernels run each distinct row once for the whole tile:
//
//   - encoder: slots that carry the same feature vector (the same backing
//     array, as BatchFeaturizer hands out one per host) share a host row;
//   - phase 1: slots with the same host row and the same child operators
//     in the same placement-edge order form one placement group — the
//     order is part of the key because the child sum is a floating-point
//     sum, (a+b)+c is not (a+c)+b;
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
// A PackedGraphs is reusable: Pack with the same receiver re-fills the
// tables without reallocating once the capacities have grown.
type PackedGraphs struct {
	base *Graph // graphs[0]; owner of the shared operator prefix
	plan *Plan
	c    int // number of candidates
	nOps int // operator nodes shared by every candidate

	opsByKind [numKinds][]int // operator node indices grouped by kind

	hostOff  []int       // len c+1: per-candidate host-slot ranges
	hostFeat [][]float64 // per-slot host feature vectors (read-only refs)
	hostRow  []int       // per-slot row among the tile's distinct host vectors
	hostUniq []int       // per distinct host vector: the first slot carrying it
	kidsOff  []int       // len hostOff[c]+1: per-slot child-list ranges
	kids     []int       // flattened child operator indices, edge order
	kidCur   []int       // per-slot cursors (scratch for the passes over edges)

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
	flowUps []int // per phase-3 row: its parents' plane rows, in plan.ups order

	opRow []int // c×nOps: plane row of (cand, op)'s final state
}

// C returns the number of packed candidates.
func (pg *PackedGraphs) C() int { return pg.c }

// NumOps returns the number of shared operator nodes.
func (pg *PackedGraphs) NumOps() int { return pg.nOps }

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
		if len(pg.plan.ups[v]) > 0 {
			steps++
		}
	}
	return [3]PhaseRows{
		{pg.hostOff[pg.c], len(pg.groupSlot)},
		{len(pg.kids), len(pg.placedOp)},
		{pg.c * steps, len(pg.flowOwn)},
	}
}

// PackGraphs packs candidate graphs sharing one operator prefix and plan
// into pg (nil allocates a fresh one) and returns it. Sharing is enforced
// structurally: every graph must reference the identical operator feature
// slices and flow-edge slice as graphs[0] (how BatchFeaturizer builds
// candidate graphs), and every node past the operator prefix must be a
// host. Violations return an error rather than silently mis-scoring.
func PackGraphs(graphs []*Graph, plan *Plan, pg *PackedGraphs) (*PackedGraphs, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("gnn: packing zero graphs")
	}
	if plan == nil {
		return nil, fmt.Errorf("gnn: packing requires a plan")
	}
	if pg == nil {
		pg = &PackedGraphs{}
	}
	base := graphs[0]
	nOps := len(base.Nodes)
	for i, nd := range base.Nodes {
		if nd.Kind == KindHost {
			nOps = i
			break
		}
	}
	if nOps == 0 {
		return nil, fmt.Errorf("gnn: packing graphs without operator nodes")
	}
	pg.base, pg.plan, pg.c, pg.nOps = base, plan, len(graphs), nOps
	for kind := range pg.opsByKind {
		pg.opsByKind[kind] = pg.opsByKind[kind][:0]
	}
	for i, nd := range base.Nodes[:nOps] {
		pg.opsByKind[nd.Kind] = append(pg.opsByKind[nd.Kind], i)
	}

	pg.hostOff = nn.Grow(pg.hostOff, len(graphs)+1)
	pg.hostOff[0] = 0
	for ci, g := range graphs {
		if len(g.Nodes) < nOps {
			return nil, fmt.Errorf("gnn: candidate %d has %d nodes, shared prefix needs %d", ci, len(g.Nodes), nOps)
		}
		for i := 0; i < nOps; i++ {
			nd, bd := &g.Nodes[i], &base.Nodes[i]
			if nd.Kind != bd.Kind || len(nd.Feat) != len(bd.Feat) ||
				(len(nd.Feat) > 0 && &nd.Feat[0] != &bd.Feat[0]) {
				return nil, fmt.Errorf("gnn: candidate %d does not share operator node %d with the tile base", ci, i)
			}
		}
		for i := nOps; i < len(g.Nodes); i++ {
			if g.Nodes[i].Kind != KindHost {
				return nil, fmt.Errorf("gnn: candidate %d node %d is %v, want host", ci, i, g.Nodes[i].Kind)
			}
		}
		if len(g.FlowEdges) != len(base.FlowEdges) ||
			(len(g.FlowEdges) > 0 && &g.FlowEdges[0] != &base.FlowEdges[0]) {
			return nil, fmt.Errorf("gnn: candidate %d does not share the tile base flow edges", ci)
		}
		pg.hostOff[ci+1] = pg.hostOff[ci] + len(g.Nodes) - nOps
	}

	hTot := pg.hostOff[len(graphs)]
	pg.hostFeat = nn.Grow(pg.hostFeat, hTot)
	pg.hostRow = nn.Grow(pg.hostRow, hTot)
	pg.hostUniq = pg.hostUniq[:0]
	pg.kidsOff = nn.Grow(pg.kidsOff, hTot+1)
	for i := range pg.kidsOff {
		pg.kidsOff[i] = 0
	}
	// CSR build of the per-slot child-operator lists: count, prefix-sum,
	// fill — preserving placement-edge order per slot, which is the child
	// summation order of the scalar pass (bit-identity depends on it).
	totalKids := 0
	for ci, g := range graphs {
		off := pg.hostOff[ci]
		for s := off; s < pg.hostOff[ci+1]; s++ {
			pg.hostFeat[s] = g.Nodes[nOps+s-off].Feat
			pg.hostRow[s] = pg.distinctRow(s)
		}
		for _, e := range g.PlaceEdges {
			op, hn := e[0], e[1]
			if op < 0 || op >= nOps || hn < nOps || hn >= len(g.Nodes) {
				return nil, fmt.Errorf("gnn: candidate %d has placement edge (%d,%d) outside the op/host split at %d", ci, op, hn, nOps)
			}
			pg.kidsOff[off+hn-nOps+1]++
			totalKids++
		}
	}
	for s := 0; s < hTot; s++ {
		pg.kidsOff[s+1] += pg.kidsOff[s]
	}
	pg.kids = nn.Grow(pg.kids, totalKids)
	pg.kidCur = nn.Grow(pg.kidCur, hTot)
	copy(pg.kidCur, pg.kidsOff)
	for ci, g := range graphs {
		off := pg.hostOff[ci]
		for _, e := range g.PlaceEdges {
			slot := off + e[1] - nOps
			pg.kids[pg.kidCur[slot]] = e[0]
			pg.kidCur[slot]++
		}
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
			pg.placedOff[base.Nodes[v].Kind+1]++
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
			row := cur[base.Nodes[v].Kind]
			cur[base.Nodes[v].Kind]++
			pg.placedGroup[row], pg.placedOp[row], pg.kidRow[i] = grp, v, row
		}
	}
	// An operator's state after phase 2 is its encoder row (plane row v)
	// unless a placement edge names it; of several edges the last wins, as
	// in the scalar pass. Edge j of a slot reads the row of kid j of the
	// slot's group.
	pg.opRow = nn.Grow(pg.opRow, len(graphs)*nOps)
	copy(pg.kidCur, pg.kidsOff)
	for ci, g := range graphs {
		rows := pg.opRow[ci*nOps : (ci+1)*nOps]
		for v := range rows {
			rows[v] = v
		}
		off := pg.hostOff[ci]
		for _, e := range g.PlaceEdges {
			slot := off + e[1] - nOps
			first := pg.groupSlot[pg.slotGroup[slot]]
			rows[e[0]] = nOps + pg.kidRow[pg.kidsOff[first]+pg.kidCur[slot]-pg.kidsOff[slot]]
			pg.kidCur[slot]++
		}
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
		parents := plan.ups[v]
		if len(parents) > 0 {
			lo, upLo := pg.flowOff[t], len(pg.flowUps)
			for ci := range graphs {
				rows := pg.opRow[ci*nOps : (ci+1)*nOps]
				rows[v] = nOps + nPlaced + pg.flowRow(lo, upLo, rows, v, parents)
			}
		}
		pg.flowOff[t+1] = len(pg.flowOwn)
	}
	return pg, nil
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

// distinctRow returns the encoder row of slot s, whose features are
// already in hostFeat: the row of an earlier slot of the tile with the
// same backing array, or a new one. Two arrays with equal contents just
// take a row each, and with it a placement group each (BatchFeaturizer
// publishes one array per host, so its graphs never carry two).
func (pg *PackedGraphs) distinctRow(s int) int {
	f := pg.hostFeat[s]
	if len(f) > 0 {
		for row, first := range pg.hostUniq {
			if u := pg.hostFeat[first]; len(u) == len(f) && &u[0] == &f[0] {
				return row
			}
		}
	}
	pg.hostUniq = append(pg.hostUniq, s)
	return len(pg.hostUniq) - 1
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

// checkBatch runs the per-node encoder checks of a packed pass (the
// structural validation happened in PackGraphs).
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
			if len(pg.base.Nodes[idx].Feat) != enc.InDim() {
				return fmt.Errorf("gnn: node %d (%v) has %d features, encoder wants %d",
					idx, NodeKind(kind), len(pg.base.Nodes[idx].Feat), enc.InDim())
			}
		}
	}
	if hTot := pg.hostOff[pg.c]; hTot > 0 {
		enc, ok := sm.enc[KindHost]
		if !ok {
			return fmt.Errorf("gnn: no encoder for kind %v", KindHost)
		}
		for _, s := range pg.hostUniq {
			if f := pg.hostFeat[s]; len(f) != enc.InDim() {
				return fmt.Errorf("gnn: host slot %d has %d features, encoder wants %d",
					s, len(f), enc.InDim())
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
			copy(s.gather[r*in:(r+1)*in], pg.base.Nodes[idx].Feat)
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
		nUniq := len(pg.hostUniq)
		s.gather = nn.Grow(s.gather, nUniq*in)
		for row, slot := range pg.hostUniq {
			copy(s.gather[row*in:(row+1)*in], pg.hostFeat[slot])
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
		np := len(pg.plan.ups[v])
		s.cat = nn.Grow(s.cat, (hi-lo)*k2H)
		for r := lo; r < hi; r++ {
			catRow(s.cat[(r-lo)*k2H:(r-lo+1)*k2H], pg.flowUps[up:up+np], pg.flowOwn[r], sm.k, H, s.ops, s.ops)
			up += np
		}
		first := nOps + nPlaced + lo
		sm.upd[pg.base.Nodes[v].Kind].ForwardBlocks(s.ops[first*kH:(first+hi-lo)*kH], s.cat, hi-lo, &s.dense)
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
