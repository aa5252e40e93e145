package gnn

// Plan caches the placement-invariant message-passing structure of a
// query's operator flow graph: the topological order of phase 3 and the
// per-operator upstream lists. Placement candidates for one query share
// the operator nodes and flow edges, so one Plan serves every candidate
// graph derived from the same base — batch scoring builds it once instead
// of re-deriving it inside each of the 5 metrics x k members inference
// passes.
type Plan struct {
	order []int   // operator node indices in topological flow order
	ups   [][]int // per-operator upstream node indices, in flow-edge order
}

// NewPlan validates the graph and derives its reusable flow structure.
// The plan remains valid for any graph that extends g with host nodes and
// placement edges (flow edges only ever connect operator nodes).
//
// Its order is opTopoOrder's first-in-first-out one, not the lowest-index
// order of stream.Topology: phase 3 runs operators in this order, which
// fixes the tape's order and with it the bits of every trained weight, and
// the two orders differ on most generated join queries.
func NewPlan(g *Graph) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.opTopoOrder()
	if err != nil {
		return nil, err
	}
	ups := make([][]int, len(g.Nodes))
	for _, e := range g.FlowEdges {
		ups[e[1]] = append(ups[e[1]], e[0])
	}
	return &Plan{order: order, ups: ups}, nil
}
