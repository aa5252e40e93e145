package gnn

import (
	"fmt"

	"costream/internal/stream"
)

// Plan caches the placement-invariant message-passing structure of a
// query's operator flow graph: the topological order of phase 3 and the
// query's stream.Topology, whose Ups are each operator's upstream lists.
// Placement candidates for one query share the operator nodes and flow
// edges, so one Plan serves every candidate graph derived from the same
// base — batch scoring builds it once instead of re-deriving it inside
// each of the 5 metrics x k members inference passes.
type Plan struct {
	order []int            // operator node indices in phase-3 order
	flow  *stream.Topology // the operators' producers, in flow-edge order
}

// NewPlan validates the graph and derives its reusable flow structure from
// flow, the Topology of the query g was featurized from: it covers
// exactly g's leading operator nodes (hosts follow them) and has one edge
// per flow edge of g. The plan remains valid for any graph that extends g
// with host nodes and placement edges (flow edges only ever connect
// operator nodes).
//
// Its order is first-in-first-out Kahn over flow.Downs, not the
// lowest-index flow.Order: phase 3 runs operators in this order, which
// fixes the tape's order and with it the bits of every trained weight, and
// the two orders differ on most generated join queries. Taking
// flow.Order moves those bits, so it waits for a deliberate re-pin of the
// weight goldens.
func NewPlan(g *Graph, flow *stream.Topology) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(flow.Order())
	covered := n <= len(g.Nodes)
	for i, nd := range g.Nodes {
		covered = covered && (nd.Kind == KindHost) == (i >= n)
	}
	if !covered {
		return nil, fmt.Errorf("gnn: flow covers %d operators, not the graph's leading operator nodes", n)
	}
	s := make([]int, 2*n)
	order, indeg := s[:0:n], s[n:]
	edges := 0
	for v := range indeg {
		if indeg[v] = len(flow.Ups(v)); indeg[v] == 0 {
			order = append(order, v)
		}
		edges += indeg[v]
	}
	if edges != len(g.FlowEdges) {
		return nil, fmt.Errorf("gnn: flow has %d edges, the graph %d", edges, len(g.FlowEdges))
	}
	for head := 0; head < len(order); head++ {
		for _, w := range flow.Downs(order[head]) {
			if indeg[w]--; indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	return &Plan{order: order, flow: flow}, nil
}
