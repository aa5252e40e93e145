package stream_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"costream/internal/stream"
	"costream/internal/workload"
)

// The reference: Query.TopoOrder, Upstream, Downstream and Validate as
// they were before one Topology replaced them, verbatim but for taking
// the query as an argument.

func refUpstream(q *stream.Query, i int) []int {
	var ups []int
	for _, e := range q.Edges {
		if e[1] == i {
			ups = append(ups, e[0])
		}
	}
	return ups
}

func refDownstream(q *stream.Query, i int) []int {
	var downs []int
	for _, e := range q.Edges {
		if e[0] == i {
			downs = append(downs, e[1])
		}
	}
	return downs
}

func refTopoOrder(q *stream.Query) ([]int, error) {
	n := len(q.Ops)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range q.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("edge %v out of range (n=%d)", e, n)
		}
		indeg[e[1]]++
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, n)
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		added := false
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
				added = true
			}
		}
		if added {
			sort.Ints(ready)
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("query graph has a cycle")
	}
	return order, nil
}

func refValidate(q *stream.Query) error {
	if len(q.Ops) == 0 {
		return fmt.Errorf("empty query")
	}
	for i, op := range q.Ops {
		if op == nil {
			return fmt.Errorf("operator %d is null", i)
		}
	}
	if len(q.Sources()) == 0 {
		return fmt.Errorf("query has no source")
	}
	nSinks := q.CountType(stream.OpSink)
	if nSinks != 1 {
		return fmt.Errorf("query must have exactly one sink, got %d", nSinks)
	}
	if _, err := refTopoOrder(q); err != nil {
		return err
	}
	for i, op := range q.Ops {
		if err := op.Validate(); err != nil {
			return err
		}
		ups := len(refUpstream(q, i))
		downs := len(refDownstream(q, i))
		switch op.Type {
		case stream.OpSource:
			if ups != 0 {
				return fmt.Errorf("source %s has %d inputs", op.ID, ups)
			}
			if downs != 1 {
				return fmt.Errorf("source %s must have exactly one consumer, got %d", op.ID, downs)
			}
		case stream.OpFilter, stream.OpAggregate:
			if ups != 1 {
				return fmt.Errorf("%v %s must have exactly one input, got %d", op.Type, op.ID, ups)
			}
			if downs != 1 {
				return fmt.Errorf("%v %s must have exactly one consumer, got %d", op.Type, op.ID, downs)
			}
		case stream.OpJoin:
			if ups != 2 {
				return fmt.Errorf("join %s must have exactly two inputs, got %d", op.ID, ups)
			}
			if downs != 1 {
				return fmt.Errorf("join %s must have exactly one consumer, got %d", op.ID, downs)
			}
		case stream.OpSink:
			if ups != 1 {
				return fmt.Errorf("sink %s must have exactly one input, got %d", op.ID, ups)
			}
			if downs != 0 {
				return fmt.Errorf("sink %s has %d consumers", op.ID, downs)
			}
		}
	}
	return nil
}

// diffReference compares q's Topology and Validate with the reference and
// describes the first difference, or returns "".
func diffReference(q *stream.Query) string {
	topo, err := q.Topology()
	order, refErr := refTopoOrder(q)
	if errText(err) != errText(refErr) {
		return fmt.Sprintf("Topology error %q, reference %q", errText(err), errText(refErr))
	}
	if err == nil {
		if !slices.Equal(topo.Order(), order) {
			return fmt.Sprintf("order %v, reference %v", topo.Order(), order)
		}
		for i := range q.Ops {
			if got, want := topo.Ups(i), refUpstream(q, i); !slices.Equal(got, want) {
				return fmt.Sprintf("Ups(%d) = %v, reference %v", i, got, want)
			}
			if got, want := topo.Downs(i), refDownstream(q, i); !slices.Equal(got, want) {
				return fmt.Sprintf("Downs(%d) = %v, reference %v", i, got, want)
			}
		}
	}
	a, err := q.Analyze()
	ref, refErr := (*stream.Rates)(nil), refValidate(q)
	if refErr == nil {
		var r stream.Rates
		if r, refErr = q.DeriveRates(); refErr == nil {
			ref = &r
		}
	} else {
		refErr = fmt.Errorf("invalid query: %w", refErr)
	}
	if errText(err) != errText(refErr) {
		return fmt.Sprintf("Analyze error %q, reference Validate then DeriveRates %q", errText(err), errText(refErr))
	}
	var rates *stream.Rates
	if a != nil {
		if a.Query() != q {
			return "Analyze returned the analysis of another query"
		}
		rates = &a.Rates
	}
	if got, want := ratesHex(rates), ratesHex(ref); got != want {
		return fmt.Sprintf("Analyze rates\n%s\nreference Validate then DeriveRates\n%s", got, want)
	}
	return ""
}

// ratesHex renders rates bit for bit, floats in hex, with the order and
// producers of their topology.
func ratesHex(r *stream.Rates) string {
	if r == nil {
		return "<nil>"
	}
	s := fmt.Sprintf("in %x\nout %x\nbytes %x\nwidth %v\norder %v\nups", r.In, r.Out, r.TupleBytes, r.Width, r.Topo.Order())
	for i := range r.In {
		s += fmt.Sprint(" ", r.Topo.Ups(i))
	}
	return s
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// testOp returns operator i of a test plan by kind: the five operator
// types with valid fields, then a null operator, an unknown type and a
// source without a rate.
func testOp(kind, i int) *stream.Operator {
	w := &stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowCountBased, Size: 10, Slide: 10}
	id := fmt.Sprintf("op-%d", i)
	switch kind % 8 {
	case 0:
		return &stream.Operator{ID: id, Type: stream.OpSource, EventRate: 100, FieldTypes: []stream.DataType{stream.TypeInt}}
	case 1:
		return &stream.Operator{ID: id, Type: stream.OpFilter, Selectivity: 0.5}
	case 2:
		return &stream.Operator{ID: id, Type: stream.OpJoin, Window: w, Selectivity: 0.1}
	case 3:
		return &stream.Operator{ID: id, Type: stream.OpAggregate, Window: w, Selectivity: 0.5}
	case 4:
		return &stream.Operator{ID: id, Type: stream.OpSink}
	case 5:
		return nil
	case 6:
		return &stream.Operator{ID: id, Type: stream.OpType(9)}
	default:
		return &stream.Operator{ID: id, Type: stream.OpSource, FieldTypes: []stream.DataType{stream.TypeInt}}
	}
}

// randomDAG returns an n-operator DAG whose every operator but the first
// has an input from an earlier one and, with probability 1/4 each, more,
// over operators of random kinds (null ones included when kinds is 8).
func randomDAG(rng *rand.Rand, n, kinds int) *stream.Query {
	q := &stream.Query{Ops: make([]*stream.Operator, n)}
	for v := range q.Ops {
		q.Ops[v] = testOp(rng.Intn(kinds), v)
	}
	for v := 1; v < n; v++ {
		q.Edges = append(q.Edges, stream.Edge{rng.Intn(v), v})
		for u := 0; u < v; u++ {
			if rng.Intn(4) == 0 && u != q.Edges[len(q.Edges)-1][0] {
				q.Edges = append(q.Edges, stream.Edge{u, v})
			}
		}
	}
	return q
}

// variants returns q and copies of it with its edges shuffled, one edge
// repeated, dropped or reversed, a cycle closed from the sink, and an
// edge out of range at either end.
func variants(rng *rand.Rand, q *stream.Query) []*stream.Query {
	edit := func(f func(c *stream.Query)) *stream.Query {
		c := &stream.Query{Ops: q.Ops, Edges: slices.Clone(q.Edges)}
		f(c)
		return c
	}
	sink := max(slices.IndexFunc(q.Ops, func(op *stream.Operator) bool { return op != nil && op.Type == stream.OpSink }), 0)
	n, m := len(q.Ops), len(q.Edges)
	out := []*stream.Query{q, edit(func(c *stream.Query) {
		rng.Shuffle(m, func(a, b int) { c.Edges[a], c.Edges[b] = c.Edges[b], c.Edges[a] })
	})}
	if m == 0 {
		return out
	}
	k := rng.Intn(m)
	return append(out,
		edit(func(c *stream.Query) { c.Edges = slices.Insert(c.Edges, rng.Intn(m+1), c.Edges[k]) }),
		edit(func(c *stream.Query) { c.Edges = slices.Delete(c.Edges, k, k+1) }),
		edit(func(c *stream.Query) { c.Edges[k] = stream.Edge{c.Edges[k][1], c.Edges[k][0]} }),
		edit(func(c *stream.Query) { c.Edges = append(c.Edges, stream.Edge{sink, c.Edges[0][0]}) }),
		edit(func(c *stream.Query) { c.Edges = slices.Insert(c.Edges, k, stream.Edge{k, n + k}) }),
		edit(func(c *stream.Query) { c.Edges = append(c.Edges, stream.Edge{-1 - k, 0}) }),
	)
}

// TestTopologyMatchesReference holds Query.Topology to the reference on
// generated queries of all six classes, random DAGs and arbitrary edge
// lists, each also with shuffled, repeated, dropped, reversed, cyclic and
// out-of-range edges: the same order (the lowest ready index first),
// producers and consumers in edge order, and the same error text.
// Analyze agrees with the reference Validate then DeriveRates: the same
// error text behind "invalid query: ", and the same rates in hex.
func TestTopologyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	gen := workload.New(workload.DefaultConfig(55))
	var qs []*stream.Query
	for class := stream.ClassLinear; class <= stream.ClassThreeWayJoinAgg; class++ {
		for k := 0; k < 40; k++ {
			qs = append(qs, variants(rng, gen.QueryOfClass(class).Query())...)
		}
	}
	for k := 0; k < 200; k++ {
		qs = append(qs, variants(rng, randomDAG(rng, 1+rng.Intn(12), 5+3*(k%2)))...)
		arbitrary := &stream.Query{Ops: make([]*stream.Operator, rng.Intn(8))}
		for i := range arbitrary.Ops {
			arbitrary.Ops[i] = testOp(rng.Intn(8), i)
		}
		for e := rng.Intn(12); e > 0; e-- {
			n := len(arbitrary.Ops)
			arbitrary.Edges = append(arbitrary.Edges, stream.Edge{rng.Intn(n+2) - 1, rng.Intn(n+2) - 1})
		}
		qs = append(qs, arbitrary)
	}
	outcomes := map[string]int{}
	for k, q := range qs {
		if d := diffReference(q); d != "" {
			t.Fatalf("query %d %v: %s", k, q.Edges, d)
		}
		_, err := q.Topology()
		outcomes[strings.SplitN(errText(err), " ", 2)[0]]++
	}
	t.Logf("%d queries, Topology outcomes by first word: %v", len(qs), outcomes)
	for _, first := range []string{"<nil>", "edge", "query"} {
		if outcomes[first] < 50 {
			t.Errorf("%d queries had a Topology outcome starting %q, want 50 or more: %v", outcomes[first], first, outcomes)
		}
	}
}

// FuzzTopology holds Query.Topology to the reference, and Analyze to the
// reference Validate then DeriveRates, on arbitrary plans: one operator
// per kind byte (see testOp) and one edge per two edge bytes, each
// endpoint in [-1, operators].
func FuzzTopology(f *testing.F) {
	gen := workload.New(workload.DefaultConfig(7))
	for class := stream.ClassLinear; class <= stream.ClassThreeWayJoinAgg; class++ {
		q := gen.QueryOfClass(class).Query()
		var kinds, edges []byte
		for _, op := range q.Ops {
			kinds = append(kinds, byte(op.Type))
		}
		for _, e := range q.Edges {
			edges = append(edges, byte(e[0]+1), byte(e[1]+1))
		}
		f.Add(kinds, edges)
	}
	f.Add([]byte{0, 1, 4}, []byte{1, 2, 2, 3, 3, 2})
	f.Add([]byte{0, 2, 0, 4}, []byte{1, 2, 3, 2, 2, 4, 0, 2})
	f.Fuzz(func(t *testing.T, kinds, edges []byte) {
		kinds = kinds[:min(len(kinds), 24)]
		n := len(kinds)
		q := &stream.Query{Ops: make([]*stream.Operator, n)}
		for i, k := range kinds {
			q.Ops[i] = testOp(int(k), i)
		}
		for k := 0; k+1 < len(edges) && len(q.Edges) < 48; k += 2 {
			q.Edges = append(q.Edges, stream.Edge{int(edges[k])%(n+2) - 1, int(edges[k+1])%(n+2) - 1})
		}
		if d := diffReference(q); d != "" {
			t.Fatalf("%d operators %v: %s", n, q.Edges, d)
		}
	})
}
