package gnn

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"costream/internal/stream"
	"costream/internal/workload"
)

// The reference: Graph.opTopoOrder and NewPlan's parent lists as they
// were before the plan read the query's stream.Topology, verbatim but for
// taking the graph as an argument.

func refOpTopoOrder(g *Graph) ([]int, error) {
	n := len(g.Nodes)
	indeg := make([]int, n)
	adj := make([][]int, n)
	isOp := make([]bool, n)
	for i, nd := range g.Nodes {
		isOp[i] = nd.Kind != KindHost
	}
	for _, e := range g.FlowEdges {
		indeg[e[1]]++
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	var ready []int
	for i := 0; i < n; i++ {
		if isOp[i] && indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	var order []int
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	nOps := 0
	for i := range g.Nodes {
		if isOp[i] {
			nOps++
		}
	}
	if len(order) != nOps {
		return nil, fmt.Errorf("gnn: operator flow graph has a cycle")
	}
	return order, nil
}

func refUps(g *Graph) [][]int {
	ups := make([][]int, len(g.Nodes))
	for _, e := range g.FlowEdges {
		ups[e[1]] = append(ups[e[1]], e[0])
	}
	return ups
}

// queryGraph is the featureless joint graph of q: a node per operator of
// its kind, then hosts host nodes, with q's edges as the flow edges.
func queryGraph(q *stream.Query, hosts int) *Graph {
	g := &Graph{}
	for _, op := range q.Ops {
		g.Nodes = append(g.Nodes, Node{Kind: NodeKind(op.Type)})
	}
	for range hosts {
		g.Nodes = append(g.Nodes, Node{Kind: KindHost})
	}
	for _, e := range q.Edges {
		g.FlowEdges = append(g.FlowEdges, e)
	}
	return g
}

// shuffledDAG returns an n-operator DAG over a random permutation of the
// operator indices, every operator but the first in permutation order
// fed by an earlier one and, with probability 1/4 each, more, with its
// edges in random order.
func shuffledDAG(rng *rand.Rand, n int) *stream.Query {
	q := &stream.Query{Ops: make([]*stream.Operator, n)}
	for v := range q.Ops {
		q.Ops[v] = &stream.Operator{Type: stream.OpType(rng.Intn(5))}
	}
	perm := rng.Perm(n)
	for v := 1; v < n; v++ {
		first := rng.Intn(v)
		q.Edges = append(q.Edges, stream.Edge{perm[first], perm[v]})
		for u := 0; u < v; u++ {
			if u != first && rng.Intn(4) == 0 {
				q.Edges = append(q.Edges, stream.Edge{perm[u], perm[v]})
			}
		}
	}
	rng.Shuffle(len(q.Edges), func(a, b int) { q.Edges[a], q.Edges[b] = q.Edges[b], q.Edges[a] })
	return q
}

// TestPlanMatchesReference holds NewPlan to the reference on 3 000
// generated queries, 300 from each of the generator seeds 1 to 10, and
// 3 000 DAGs with shuffled indices and edges, each followed by up to two
// host nodes: phase 3's first-in-first-out order and each operator's
// parents in flow-edge order. The order must differ from the query's
// lowest-index Topology order on many of them, or the check could not
// tell the two apart.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	var qs []*stream.Query
	for seed := int64(1); seed <= 10; seed++ {
		gen := workload.New(workload.DefaultConfig(seed))
		for range 300 {
			qs = append(qs, gen.Query().Query())
		}
	}
	for range 3000 {
		qs = append(qs, shuffledDAG(rng, 1+rng.Intn(14)))
	}
	lowest := 0
	for k, q := range qs {
		flow, err := q.Topology()
		if err != nil {
			t.Fatalf("query %d: %v", k, err)
		}
		g := queryGraph(q, rng.Intn(3))
		plan, err := NewPlan(g, &flow)
		if err != nil {
			t.Fatalf("query %d: %v", k, err)
		}
		order, err := refOpTopoOrder(g)
		if err != nil {
			t.Fatalf("query %d: reference: %v", k, err)
		}
		if !slices.Equal(plan.order, order) {
			t.Fatalf("query %d %v: order %v, reference %v", k, q.Edges, plan.order, order)
		}
		ups := refUps(g)
		for v := range q.Ops {
			if got := plan.flow.Ups(v); !slices.Equal(got, ups[v]) {
				t.Fatalf("query %d %v: parents of %d %v, reference %v", k, q.Edges, v, got, ups[v])
			}
		}
		if !slices.Equal(order, flow.Order()) {
			lowest++
		}
	}
	t.Logf("%d plans, %d ordered unlike Topology.Order", len(qs), lowest)
	if lowest < len(qs)/4 {
		t.Errorf("only %d of %d plans ordered unlike Topology.Order, want a quarter or more", lowest, len(qs))
	}
}

// TestNewPlanRefusesForeignFlow: NewPlan refuses a flow that does not
// cover exactly the graph's leading operator nodes, or whose edge count
// differs from the graph's flow edges, with a message saying which.
func TestNewPlanRefusesForeignFlow(t *testing.T) {
	g := diamondGraph() // four operators, then a host
	topo := func(n int, edges ...stream.Edge) *stream.Topology {
		t.Helper()
		flow, err := (&stream.Query{Ops: make([]*stream.Operator, n), Edges: edges}).Topology()
		if err != nil {
			t.Fatal(err)
		}
		return &flow
	}
	diamond := []stream.Edge{{0, 2}, {1, 2}, {2, 3}}
	hostFirst := &Graph{Nodes: append([]Node{g.Nodes[4]}, g.Nodes[:4]...)}
	for name, tc := range map[string]struct {
		g    *Graph
		flow *stream.Topology
		want string
	}{
		"too few operators":  {g, topo(3, diamond[:2]...), "flow covers 3 operators, not the graph's leading operator nodes"},
		"a host covered":     {g, topo(5, diamond...), "flow covers 5 operators"},
		"past the graph":     {g, topo(6, diamond...), "flow covers 6 operators"},
		"host before ops":    {hostFirst, topo(4), "flow covers 4 operators"},
		"an edge missing":    {g, topo(4, diamond[:2]...), "flow has 2 edges, the graph 3"},
		"an edge repeated":   {g, topo(4, append(diamond, diamond[2])...), "flow has 4 edges, the graph 3"},
		"graph still checks": {&Graph{}, topo(0), "empty graph"},
	} {
		if _, err := NewPlan(tc.g, tc.flow); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	if _, err := NewPlan(g, topo(4, diamond...)); err != nil {
		t.Errorf("the graph's own flow refused: %v", err)
	}
}
