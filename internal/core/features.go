// Package core implements the COSTREAM cost model: the transferable
// featurization of Table I, the construction of the joint
// operator-resource graph, training of per-metric GNN models (throughput,
// processing latency, end-to-end latency as regression; backpressure and
// query success as classification), seed ensembles with mean/majority-vote
// aggregation, and few-shot fine-tuning.
package core

import (
	"fmt"
	"math"
	"slices"

	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// FeatureMode selects the featurization for the Exp 7a ablation.
type FeatureMode int

// Featurization modes.
const (
	// FeatFull is COSTREAM's featurization: host nodes with hardware
	// features plus placement edges.
	FeatFull FeatureMode = iota
	// FeatPlacementOnly keeps host nodes and placement/co-location
	// structure but blinds the model to hardware features.
	FeatPlacementOnly
	// FeatQueryOnly drops host nodes entirely: the model sees only the
	// query logic and data characteristics.
	FeatQueryOnly
)

func (m FeatureMode) String() string {
	switch m {
	case FeatFull:
		return "full"
	case FeatPlacementOnly:
		return "placement-only"
	case FeatQueryOnly:
		return "query-only"
	default:
		return fmt.Sprintf("FeatureMode(%d)", int(m))
	}
}

// Featurizer converts (query, cluster, placement) triples into joint
// operator-resource graphs with transferable feature vectors. The
// normalization constants are fixed (not fitted to a dataset), which is
// what makes the features transferable across workloads and hardware.
type Featurizer struct {
	Mode FeatureMode
}

// Feature vector dimensions per node kind.
const (
	// Common operator features: tuple width in/out, tuple bytes in/out,
	// and the derived logical arrival/output rates. The rates follow
	// from the source event rates and annotated selectivities
	// (Section IV-B: "derive the tuple arrival rates for operators
	// further downstream") and are therefore available before execution.
	commonDim = 6
	sourceDim = 6 + commonDim  // rate, width, type fractions, avg bytes
	filterDim = 12 + commonDim // fn one-hot(7), literal one-hot(3), sel, log-sel
	joinDim   = 12 + commonDim // key one-hot(3), sel, log-sel, window(5), extent(2)
	aggDim    = 20 + commonDim // fn(4), value(3), group-by(4), sel, log-sel, window(5), extent(2)
	sinkDim   = 1 + commonDim
	hostDim   = 4 // cpu, ram, bandwidth, latency
)

// FeatDims returns the per-kind feature dimensions for model construction.
func (f *Featurizer) FeatDims() map[gnn.NodeKind]int {
	return map[gnn.NodeKind]int{
		gnn.KindSource:    sourceDim,
		gnn.KindFilter:    filterDim,
		gnn.KindJoin:      joinDim,
		gnn.KindAggregate: aggDim,
		gnn.KindSink:      sinkDim,
		gnn.KindHost:      hostDim,
	}
}

// Fixed normalization helpers. All are log-scaled against the bottom of
// the Table II training grids so that in-range values map roughly to
// [0, 1] and out-of-range values extrapolate smoothly beyond.
func normRate(rate float64) float64 {
	return math.Log2(math.Max(rate, 1)/20) / 10.32
}

func normSel(sel float64) float64 {
	return math.Log10(sel+1e-6)/6 + 1
}

func normCountSize(size float64) float64 {
	return math.Log2(math.Max(size, 1)) / 9.33
}

func normTimeSize(size float64) float64 {
	return math.Log2(math.Max(size, 0.05)/0.25) / 6
}

func normCPU(cpu float64) float64 {
	return math.Log2(math.Max(cpu, 10)/50) / 4
}

func normRAM(ramMB float64) float64 {
	return math.Log2(math.Max(ramMB, 100)/1000) / 5
}

func normBW(bwMbps float64) float64 {
	return math.Log2(math.Max(bwMbps, 1)/25) / 8.64
}

func normLat(latMS float64) float64 {
	return math.Log2(math.Max(latMS, 0.25)/0.25) / 9.32
}

func normWidth(w int) float64     { return float64(w) / 10 }
func normBytes(b float64) float64 { return b / 400 }

// appendWindowExtent appends the window extent in seconds and tuples,
// derived from the operator's logical arrival rate; both follow from
// annotated selectivities and source rates, so they are available
// pre-execution. The seconds extent drives latency (a firing window's
// oldest tuple is a full extent old), the tuple extent drives state size
// and memory.
func appendWindowExtent(dst []float64, w *stream.Window, arrivalRate float64) []float64 {
	if w == nil {
		return append(dst, 0, 0)
	}
	return append(dst, normTimeSize(w.ExtentSeconds(arrivalRate)), normCountSize(w.ExtentTuples(arrivalRate)))
}

// appendWindow appends a window specification's 5 transferable values.
func appendWindow(dst []float64, w *stream.Window) []float64 {
	if w == nil {
		return append(dst, 0, 0, 0, 0, 0)
	}
	isSliding, isCount := 0.0, 0.0
	countSize, timeSize := 0.0, 0.0
	if w.Type == stream.WindowSliding {
		isSliding = 1
	}
	if w.Policy == stream.WindowCountBased {
		isCount = 1
		countSize = normCountSize(w.Size)
	} else {
		timeSize = normTimeSize(w.Size)
	}
	slideRatio := 1.0
	if w.Size > 0 {
		slideRatio = w.Slide / w.Size
	}
	return append(dst, isSliding, isCount, countSize, timeSize, slideRatio)
}

// appendOneHot appends n values, 1 at idx and 0 elsewhere (all 0 for an
// idx out of range).
func appendOneHot(dst []float64, n, idx int) []float64 {
	for k := 0; k < n; k++ {
		v := 0.0
		if k == idx {
			v = 1
		}
		dst = append(dst, v)
	}
	return dst
}

// opDims is each operator type's feature dimension.
var opDims = [...]int{stream.OpSource: sourceDim, stream.OpFilter: filterDim,
	stream.OpJoin: joinDim, stream.OpAggregate: aggDim, stream.OpSink: sinkDim}

// opGraph builds the placement-invariant part of the joint graph, which
// BatchFeaturizer shares across candidates: typed operator nodes, their
// feature vectors carved from one slab, the logical data-flow edges and
// the message-passing plan over the query's Topology. Nodes has room for
// hosts more nodes, the host nodes BuildGraph appends.
func (f *Featurizer) opGraph(a *stream.Analysis, hosts int) (*gnn.Graph, *gnn.Plan, error) {
	q := a.Query()
	g := &gnn.Graph{Nodes: make([]gnn.Node, len(q.Ops), len(q.Ops)+hosts)}
	dims := 0
	for _, op := range q.Ops {
		dims += opDims[op.Type]
	}
	slab := make([]float64, dims)
	for i, op := range q.Ops {
		d := opDims[op.Type]
		g.Nodes[i], slab = f.opNode(slab[:0:d], &a.Rates, i, op), slab[d:]
	}
	g.FlowEdges = make([][2]int, len(q.Edges))
	for k, e := range q.Edges {
		g.FlowEdges[k] = e
	}
	plan, err := gnn.NewPlan(g, &a.Topo)
	if err != nil {
		return nil, nil, err
	}
	return g, plan, nil
}

// BuildGraph constructs the joint operator-resource graph of Section III
// and its message-passing plan: one host node per distinct host p uses,
// in first-use order, features carved from one slab, and one placement
// edge per operator. For FeatQueryOnly the placement may be nil.
func (f *Featurizer) BuildGraph(a *stream.Analysis, c *hardware.Cluster, p sim.Placement) (*gnn.Graph, *gnn.Plan, error) {
	if f.Mode == FeatQueryOnly {
		return f.opGraph(a, 0)
	}
	g, plan, err := f.opGraph(a, len(p))
	if err != nil {
		return nil, nil, err
	}
	if c == nil {
		return nil, nil, fmt.Errorf("core: cluster required for %v featurization", f.Mode)
	}
	if err := p.Validate(a.Query(), c); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	hosts := 0
	for opIdx, h := range p {
		if slices.Index(p[:opIdx], h) < 0 {
			hosts++
		}
	}
	slab := make([]float64, hosts*hostDim)
	g.PlaceEdges = make([][2]int, len(p))
	for opIdx, h := range p {
		node := len(g.Nodes)
		if prev := slices.Index(p[:opIdx], h); prev >= 0 {
			node = g.PlaceEdges[prev][1]
		} else {
			g.Nodes = append(g.Nodes, gnn.Node{Kind: gnn.KindHost, Feat: f.hostFeatures(slab[:0:hostDim], c.Hosts[h])})
			slab = slab[hostDim:]
		}
		g.PlaceEdges[opIdx] = [2]int{opIdx, node}
	}
	return g, plan, nil
}

// hostFeatures appends host h's hostDim features to dst.
func (f *Featurizer) hostFeatures(dst []float64, h *hardware.Host) []float64 {
	if f.Mode == FeatPlacementOnly {
		// Placement structure without hardware knowledge: a constant
		// vector. Messages still carry co-location information.
		return append(dst, 1, 0, 0, 0)
	}
	return append(dst,
		normCPU(h.CPU),
		normRAM(h.RAMMB),
		normBW(h.NetBandwidthMbps),
		normLat(h.NetLatencyMS),
	)
}

// opNode is operator i's node: its kind and its feature vector, the
// kind's own features followed by the common ones, appended to feat,
// which has room for the kind's dimension.
func (f *Featurizer) opNode(feat []float64, rates *stream.Rates, i int, op *stream.Operator) gnn.Node {
	// Common features (Table I "all" rows): averaged incoming and
	// outgoing tuple width plus serialized sizes.
	widthIn, bytesIn := 0.0, 0.0
	if ups := rates.Topo.Ups(i); len(ups) > 0 {
		for _, u := range ups {
			widthIn += float64(rates.Width[u])
			bytesIn += rates.TupleBytes[u]
		}
		widthIn /= float64(len(ups))
		bytesIn /= float64(len(ups))
	} else {
		widthIn = float64(rates.Width[i])
		bytesIn = rates.TupleBytes[i]
	}
	inRate := rates.In[i]
	if op.Type == stream.OpSource {
		inRate = op.EventRate
	}
	var n gnn.Node
	switch op.Type {
	case stream.OpSource:
		var nInt, nStr, nDbl float64
		for _, t := range op.FieldTypes {
			switch t {
			case stream.TypeInt:
				nInt++
			case stream.TypeString:
				nStr++
			default:
				nDbl++
			}
		}
		total := float64(len(op.FieldTypes))
		n = gnn.Node{Kind: gnn.KindSource, Feat: append(feat,
			normRate(op.EventRate),
			normWidth(len(op.FieldTypes)),
			nInt/total, nStr/total, nDbl/total,
			stream.AvgFieldBytes(op.FieldTypes)/32,
		)}
	case stream.OpFilter:
		feat = appendOneHot(feat, 7, int(op.FilterFn))
		feat = appendOneHot(feat, 3, int(op.LiteralType))
		n = gnn.Node{Kind: gnn.KindFilter, Feat: append(feat, op.Selectivity, normSel(op.Selectivity))}
	case stream.OpJoin:
		feat = appendOneHot(feat, 3, int(op.JoinKeyType))
		feat = append(feat, op.Selectivity, normSel(op.Selectivity))
		feat = appendWindow(feat, op.Window)
		// Joins window each input stream separately; use the mean
		// per-stream rate for the extent.
		n = gnn.Node{Kind: gnn.KindJoin, Feat: appendWindowExtent(feat, op.Window, inRate/2)}
	case stream.OpAggregate:
		feat = appendOneHot(feat, 4, int(op.AggFn))
		feat = appendOneHot(feat, 3, int(op.AggValueType))
		gb := 3 // "none"
		if op.HasGroupBy {
			gb = int(op.GroupByType)
		}
		feat = appendOneHot(feat, 4, gb)
		feat = append(feat, op.Selectivity, normSel(op.Selectivity))
		feat = appendWindow(feat, op.Window)
		n = gnn.Node{Kind: gnn.KindAggregate, Feat: appendWindowExtent(feat, op.Window, inRate)}
	default: // the sink
		n = gnn.Node{Kind: gnn.KindSink, Feat: append(feat, 1)}
	}
	n.Feat = append(n.Feat,
		widthIn/10,
		normWidth(rates.Width[i]),
		normBytes(bytesIn),
		normBytes(rates.TupleBytes[i]),
		normRate(inRate),
		normRate(rates.Out[i]),
	)
	return n
}
