package gnn

import (
	"fmt"

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
// Candidates of one tile place their operators on the same few hosts, so
// slots that carry the same feature vector (the same backing array, as
// BatchFeaturizer hands out one per host) share one encoder row.
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
	kidCur   []int       // fill cursors (scratch for the CSR build)
	opHost   []int       // c×nOps: packed host slot per (cand, op), -1 none
}

// C returns the number of packed candidates.
func (pg *PackedGraphs) C() int { return pg.c }

// NumOps returns the number of shared operator nodes.
func (pg *PackedGraphs) NumOps() int { return pg.nOps }

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
	pg.opHost = nn.Grow(pg.opHost, len(graphs)*nOps)
	for i := range pg.opHost {
		pg.opHost[i] = -1
	}
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
	for s := 0; s < hTot; s++ {
		pg.kidCur[s] = pg.kidsOff[s]
	}
	for ci, g := range graphs {
		off := pg.hostOff[ci]
		for _, e := range g.PlaceEdges {
			slot := off + e[1] - nOps
			pg.kids[pg.kidCur[slot]] = e[0]
			pg.kidCur[slot]++
			pg.opHost[ci*nOps+e[0]] = slot
		}
	}
	return pg, nil
}

// distinctRow returns the encoder row of slot s, whose features are
// already in hostFeat: the row of an earlier slot of the tile with the
// same backing array, or a new one. Two arrays with equal contents (a
// host featurized twice in BatchFeaturizer's first-use race) just take a
// row each.
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
// forward pass. One BatchScratch serves one goroutine and either
// precision — it keeps the planes of the element type it last ran at; a
// nil scratch is accepted and allocates fresh buffers.
type BatchScratch struct {
	planes any // *batchPlanes[T]
}

// NewBatchScratch returns an empty scratch; its buffers grow on first use
// and are reused afterwards.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// batchPlanes are a BatchScratch's buffers at one element type: the
// shared operator encodings, the packed host planes, the per-candidate
// operator activation planes and the gather/concat staging blocks.
type batchPlanes[T nn.Float] struct {
	encOps   []T // nOps × (k·H), shared across candidates
	hostEnc  []T // distinct hosts × (k·H) encoder outputs
	hostNext []T // Σhosts × (k·H) phase-1 (= final) host states
	after2   []T // C × nOps × (k·H) phase-2 operator states
	final    []T // C × nOps × (k·H) phase-3 operator states
	gather   []T // rows × featDim encoder inputs
	cat      []T // rows × (k·2H) update inputs
	tmp      []T // rows × (k·H) kernel outputs
	agg      []T // C × (k·H) readout accumulators

	dense nn.DenseScratch[T]
}

func planesOf[T nn.Float](s *BatchScratch) *batchPlanes[T] {
	p, ok := s.planes.(*batchPlanes[T])
	if !ok {
		p = &batchPlanes[T]{}
		s.planes = p
	}
	return p
}

// checkBatch runs the per-node encoder checks of a packed pass (the
// structural validation happened in PackGraphs).
func (sm *StackedModel[T]) checkBatch(pg *PackedGraphs) error {
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

// gatherRow stages one feature vector as an encoder input row.
func gatherRow[T nn.Float](dst []T, feat []float64) {
	for i, f := range feat {
		dst[i] = T(f)
	}
}

// InferEnsembleBatch runs one forward pass for all C packed candidates and
// all k members at once, writing the raw member outputs candidate-major
// into out (len C·k: candidate c's member m lands at out[c·k+m]). At
// T = float64 every value is bit-identical to Model.InferPlanned per
// member on the candidate's own graph: all kernels are row-independent
// with a fixed per-row accumulation order, so batching rows across
// candidates — or not, at C = 1 — cannot change any result. The same
// holds between tilings at T = float32, so the documented 1e-4 relative
// drift bound against float64 is independent of the tile size.
// Cross-candidate fusion turns the sequential phase-3 flow walk from
// nOps·C single-row kernel calls into nOps calls of C rows each — the
// main win for search rounds.
func (sm *StackedModel[T]) InferEnsembleBatch(pg *PackedGraphs, bs *BatchScratch, out []float64) error {
	c, nOps := pg.c, pg.nOps
	if len(out) != c*sm.k {
		return fmt.Errorf("gnn: output buffer holds %d values, want %d candidates x %d members", len(out), c, sm.k)
	}
	if err := sm.checkBatch(pg); err != nil {
		return err
	}
	if bs == nil {
		bs = NewBatchScratch()
	}
	s := planesOf[T](bs)
	H := sm.cfg.Hidden
	kH := sm.k * H
	k2H := sm.k * 2 * H
	hTot := pg.hostOff[c]

	// Encode the shared operator prefix once for every candidate, one
	// matrix-matrix pass per node kind (features shared across members).
	s.encOps = nn.Grow(s.encOps, nOps*kH)
	for kind := range pg.opsByKind {
		idxs := pg.opsByKind[kind]
		if len(idxs) == 0 {
			continue
		}
		enc := sm.enc[NodeKind(kind)]
		in := enc.InDim()
		s.gather = nn.Grow(s.gather, len(idxs)*in)
		for r, idx := range idxs {
			gatherRow(s.gather[r*in:(r+1)*in], pg.base.Nodes[idx].Feat)
		}
		s.tmp = nn.Grow(s.tmp, len(idxs)*kH)
		enc.ForwardShared(s.tmp, s.gather, len(idxs), &s.dense)
		for r, idx := range idxs {
			copy(s.encOps[idx*kH:(idx+1)*kH], s.tmp[r*kH:(r+1)*kH])
		}
	}

	// Encode the tile's distinct hosts — each once, however many slots
	// carry it — and run phase 1 (operators -> hardware) over every slot of
	// every candidate in one kernel call: a host's phase-1 state is also
	// its final state (phases 2 and 3 only write operators).
	if hTot > 0 {
		enc := sm.enc[KindHost]
		in := enc.InDim()
		nUniq := len(pg.hostUniq)
		s.gather = nn.Grow(s.gather, nUniq*in)
		for row, slot := range pg.hostUniq {
			gatherRow(s.gather[row*in:(row+1)*in], pg.hostFeat[slot])
		}
		s.hostEnc = nn.Grow(s.hostEnc, nUniq*kH)
		enc.ForwardShared(s.hostEnc, s.gather, nUniq, &s.dense)

		s.cat = nn.Grow(s.cat, hTot*k2H)
		for slot := 0; slot < hTot; slot++ {
			kids := pg.kids[pg.kidsOff[slot]:pg.kidsOff[slot+1]]
			catRow(s.cat[slot*k2H:(slot+1)*k2H], kids, pg.hostRow[slot], sm.k, H, s.encOps, s.hostEnc)
		}
		s.hostNext = nn.Grow(s.hostNext, hTot*kH)
		sm.upd[KindHost].ForwardBlocks(s.hostNext, s.cat, hTot, &s.dense)
	}

	// Phase 2 (hardware -> operators), batched per operator kind across
	// all candidates. Operators without a placement edge keep their
	// encoder state, so the plane starts as a per-candidate broadcast of
	// the shared encodings.
	s.after2 = nn.Grow(s.after2, c*nOps*kH)
	for ci := 0; ci < c; ci++ {
		copy(s.after2[ci*nOps*kH:(ci+1)*nOps*kH], s.encOps[:nOps*kH])
	}
	if hTot > 0 {
		var kidBuf [1]int
		for kind := range pg.opsByKind {
			idxs := pg.opsByKind[kind]
			if len(idxs) == 0 {
				continue
			}
			rows := 0
			for ci := 0; ci < c; ci++ {
				for _, v := range idxs {
					if pg.opHost[ci*nOps+v] >= 0 {
						rows++
					}
				}
			}
			if rows == 0 {
				continue
			}
			s.cat = nn.Grow(s.cat, rows*k2H)
			r := 0
			for ci := 0; ci < c; ci++ {
				for _, v := range idxs {
					slot := pg.opHost[ci*nOps+v]
					if slot < 0 {
						continue
					}
					kidBuf[0] = slot
					catRow(s.cat[r*k2H:(r+1)*k2H], kidBuf[:], v, sm.k, H, s.hostNext, s.encOps)
					r++
				}
			}
			s.tmp = nn.Grow(s.tmp, rows*kH)
			sm.upd[NodeKind(kind)].ForwardBlocks(s.tmp, s.cat, rows, &s.dense)
			r = 0
			for ci := 0; ci < c; ci++ {
				for _, v := range idxs {
					if pg.opHost[ci*nOps+v] < 0 {
						continue
					}
					copy(s.after2[(ci*nOps+v)*kH:(ci*nOps+v+1)*kH], s.tmp[r*kH:(r+1)*kH])
					r++
				}
			}
		}
	}

	// Phase 3 (sources -> ... -> sink): inherently sequential along the
	// flow order, but each step advances all C candidates x k members in
	// one kernel call of C rows.
	s.final = nn.Grow(s.final, c*nOps*kH)
	copy(s.final, s.after2[:c*nOps*kH])
	s.cat = nn.Grow(s.cat, max(len(s.cat), c*k2H))
	s.tmp = nn.Grow(s.tmp, max(len(s.tmp), c*kH))
	for _, v := range pg.plan.order {
		parents := pg.plan.ups[v]
		if len(parents) == 0 {
			continue // sources send but do not receive in this phase
		}
		for ci := 0; ci < c; ci++ {
			plane := ci * nOps * kH
			catRow(s.cat[ci*k2H:(ci+1)*k2H], parents, v, sm.k, H,
				s.final[plane:plane+nOps*kH], s.after2[plane:plane+nOps*kH])
		}
		sm.upd[pg.base.Nodes[v].Kind].ForwardBlocks(s.tmp[:c*kH], s.cat[:c*k2H], c, &s.dense)
		for ci := 0; ci < c; ci++ {
			copy(s.final[(ci*nOps+v)*kH:(ci*nOps+v+1)*kH], s.tmp[ci*kH:(ci+1)*kH])
		}
	}

	// Readout: per candidate, the per-member sum over node states in node
	// order — operators first, then the candidate's hosts in slot order
	// (their first-use node order) — then one stacked output pass of C
	// rows.
	s.agg = nn.Grow(s.agg, c*kH)
	for ci := 0; ci < c; ci++ {
		agg := s.agg[ci*kH : (ci+1)*kH]
		fin := s.final[ci*nOps*kH : (ci+1)*nOps*kH]
		copy(agg, fin[:kH])
		for v := 1; v < nOps; v++ {
			blk := fin[v*kH : (v+1)*kH]
			for i, x := range blk {
				agg[i] += x
			}
		}
		for slot := pg.hostOff[ci]; slot < pg.hostOff[ci+1]; slot++ {
			blk := s.hostNext[slot*kH : (slot+1)*kH]
			for i, x := range blk {
				agg[i] += x
			}
		}
	}
	s.tmp = nn.Grow(s.tmp, max(len(s.tmp), c*sm.k))
	sm.out.ForwardBlocks(s.tmp[:c*sm.k], s.agg[:c*kH], c, &s.dense)
	for i, v := range s.tmp[:c*sm.k] {
		out[i] = float64(v)
	}
	return nil
}
