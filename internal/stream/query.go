package stream

import (
	"fmt"
	"sort"
	"strconv"
)

// Query is a DAG-shaped streaming query plan. Vertices are operators;
// directed edges describe the logical data flow from sources toward the
// single sink. Joins have two inputs, every other operator has at most one;
// the plan therefore forms a tree rooted at the sink (Section III-A).
type Query struct {
	Ops   []*Operator
	Edges []Edge
}

// Edge is one data-flow edge of a plan: [from, to] operator indices.
type Edge [2]int

// UnmarshalJSON accepts exactly a JSON array of two integers in the int
// range, with optional whitespace, and refuses anything else, null
// included: encoding/json would fill a bare [2]int from a one-element
// array and drop the elements past the second unread. It is the one
// check of an edge's shape: every decoder of a Query reaches it, the
// serve routes (both of /v1/predict's decode paths) and the corpus
// reader alike. It checks the JSON grammar of what it accepts itself, so
// it may be handed bytes no JSON scanner has seen.
func (e *Edge) UnmarshalJSON(b []byte) error {
	var v Edge
	s, ok := edgeDelim(b, '[')
	for k := 0; ok && k < len(v); k++ {
		if k > 0 {
			s, ok = edgeDelim(s, ',')
		}
		if ok {
			v[k], s, ok = edgeIndex(s)
		}
	}
	if ok {
		s, ok = edgeDelim(s, ']')
	}
	if !ok || len(s) != 0 {
		text, cut := b, ""
		if len(b) > 40 {
			text, cut = b[:40], "..."
		}
		return fmt.Errorf("edge %s%s is not [from, to]: want two integer operator indices", text, cut)
	}
	*e = v
	return nil
}

// edgeDelim consumes c and the JSON whitespace around it.
func edgeDelim(s []byte, c byte) ([]byte, bool) {
	s = trimJSONSpace(s)
	if len(s) == 0 || s[0] != c {
		return s, false
	}
	return trimJSONSpace(s[1:]), true
}

// edgeIndex consumes a JSON integer literal, -?(0|[1-9][0-9]*), in the
// int range; a fraction or an exponent is left for the caller to refuse.
func edgeIndex(s []byte) (int, []byte, bool) {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	d := i
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	if i == d || (s[d] == '0' && i > d+1) {
		return 0, s, false
	}
	n, err := strconv.ParseInt(string(s[:i]), 10, 0)
	return int(n), s[i:], err == nil
}

func trimJSONSpace(s []byte) []byte {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t' || s[0] == '\n' || s[0] == '\r') {
		s = s[1:]
	}
	return s
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{
		Ops:   make([]*Operator, len(q.Ops)),
		Edges: make([]Edge, len(q.Edges)),
	}
	for i, op := range q.Ops {
		oc := *op
		if op.Window != nil {
			w := *op.Window
			oc.Window = &w
		}
		oc.FieldTypes = append([]DataType(nil), op.FieldTypes...)
		c.Ops[i] = &oc
	}
	copy(c.Edges, q.Edges)
	return c
}

// NumOps returns the number of operators in the plan.
func (q *Query) NumOps() int { return len(q.Ops) }

// Upstream returns the indices of operators feeding op i, in edge order.
func (q *Query) Upstream(i int) []int {
	var ups []int
	for _, e := range q.Edges {
		if e[1] == i {
			ups = append(ups, e[0])
		}
	}
	return ups
}

// Downstream returns the indices of operators consuming op i's output.
func (q *Query) Downstream(i int) []int {
	var downs []int
	for _, e := range q.Edges {
		if e[0] == i {
			downs = append(downs, e[1])
		}
	}
	return downs
}

// Sources returns the indices of all source operators.
func (q *Query) Sources() []int {
	var srcs []int
	for i, op := range q.Ops {
		if op.Type == OpSource {
			srcs = append(srcs, i)
		}
	}
	return srcs
}

// Sink returns the index of the sink operator, or -1 if absent.
func (q *Query) Sink() int {
	for i, op := range q.Ops {
		if op.Type == OpSink {
			return i
		}
	}
	return -1
}

// CountType returns how many operators of the given type the plan has.
func (q *Query) CountType(t OpType) int {
	n := 0
	for _, op := range q.Ops {
		if op.Type == t {
			n++
		}
	}
	return n
}

// TopoOrder returns the operator indices in a topological order of the data
// flow (sources first, sink last). The order is deterministic: ties are
// broken by operator index.
func (q *Query) TopoOrder() ([]int, error) {
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

// Validate checks structural invariants: exactly one sink, at least one
// source, a connected acyclic flow, join fan-in of two, unary fan-in for
// filters/aggregations/sinks, and per-operator field validity.
func (q *Query) Validate() error {
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
	nSinks := q.CountType(OpSink)
	if nSinks != 1 {
		return fmt.Errorf("query must have exactly one sink, got %d", nSinks)
	}
	if _, err := q.TopoOrder(); err != nil {
		return err
	}
	for i, op := range q.Ops {
		if err := op.Validate(); err != nil {
			return err
		}
		ups := len(q.Upstream(i))
		downs := len(q.Downstream(i))
		switch op.Type {
		case OpSource:
			if ups != 0 {
				return fmt.Errorf("source %s has %d inputs", op.ID, ups)
			}
			if downs != 1 {
				return fmt.Errorf("source %s must have exactly one consumer, got %d", op.ID, downs)
			}
		case OpFilter, OpAggregate:
			if ups != 1 {
				return fmt.Errorf("%v %s must have exactly one input, got %d", op.Type, op.ID, ups)
			}
			if downs != 1 {
				return fmt.Errorf("%v %s must have exactly one consumer, got %d", op.Type, op.ID, downs)
			}
		case OpJoin:
			if ups != 2 {
				return fmt.Errorf("join %s must have exactly two inputs, got %d", op.ID, ups)
			}
			if downs != 1 {
				return fmt.Errorf("join %s must have exactly one consumer, got %d", op.ID, downs)
			}
		case OpSink:
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

// Rates holds the derived steady-state logical rates of a plan, ignoring
// resource limits: the arrival and output tuple rates per operator and the
// serialized tuple size of each operator's output stream.
type Rates struct {
	In         []float64 // tuples/s arriving at each operator
	Out        []float64 // tuples/s emitted by each operator
	TupleBytes []float64 // serialized bytes of one output tuple
	Width      []int     // attributes per output tuple
}

// DeriveRates propagates source event rates through the plan using the
// selectivity definitions of the paper:
//
//   - filter:      out = in * sel                          (Definition 6)
//   - join:        out = sel * (r1*|W2| + r2*|W1|)         (Definition 7,
//     symmetric-hash formulation: each arrival probes the opposite window)
//   - aggregation: out = fires/s * groups, groups = sel*|W| (Definition 8)
//
// The returned slices are indexed by operator index. DeriveRates does not
// mutate the query, so concurrent callers (ensemble training, batched
// placement scoring) may share one Query.
func (q *Query) DeriveRates() (*Rates, error) {
	order, err := q.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(q.Ops)
	r := &Rates{
		In:         make([]float64, n),
		Out:        make([]float64, n),
		TupleBytes: make([]float64, n),
		Width:      make([]int, n),
	}
	avgBytes := make([]float64, n)
	for _, i := range order {
		op := q.Ops[i]
		ups := q.Upstream(i)
		var in float64
		for _, u := range ups {
			in += r.Out[u]
		}
		r.In[i] = in
		switch op.Type {
		case OpSource:
			r.Out[i] = op.EventRate
			r.Width[i] = len(op.FieldTypes)
			avgBytes[i] = AvgFieldBytes(op.FieldTypes)
		case OpFilter:
			r.Out[i] = in * op.Selectivity
			r.Width[i] = r.Width[ups[0]]
			avgBytes[i] = avgBytes[ups[0]]
		case OpJoin:
			u1, u2 := ups[0], ups[1]
			r1, r2 := r.Out[u1], r.Out[u2]
			w1 := op.Window.ExtentTuples(r1)
			w2 := op.Window.ExtentTuples(r2)
			r.Out[i] = op.Selectivity * (r1*w2 + r2*w1)
			r.Width[i] = r.Width[u1] + r.Width[u2]
			tot := float64(r.Width[u1])*avgBytes[u1] + float64(r.Width[u2])*avgBytes[u2]
			if r.Width[i] > 0 {
				avgBytes[i] = tot / float64(r.Width[i])
			}
		case OpAggregate:
			u := ups[0]
			fires := op.Window.FiresPerSecond(r.Out[u])
			extent := op.Window.ExtentTuples(r.Out[u])
			groups := op.Selectivity * extent
			if groups < 1 {
				groups = 1
			}
			if !op.HasGroupBy {
				groups = 1
			}
			r.Out[i] = fires * groups
			// Aggregation emits (group key, aggregate) style narrow tuples.
			r.Width[i] = 2
			avgBytes[i] = (op.AggValueType.Bytes() + op.GroupByType.Bytes()) / 2
		case OpSink:
			r.Out[i] = in
			r.Width[i] = r.Width[ups[0]]
			avgBytes[i] = avgBytes[ups[0]]
		}
		if r.Out[i] < 0 {
			r.Out[i] = 0
		}
		r.TupleBytes[i] = TupleBytes(r.Width[i], avgBytes[i])
	}
	return r, nil
}

// QueryClass labels a plan by its join arity and aggregation presence,
// mirroring the six query classes of Figure 8.
type QueryClass int

// Query classes used by the evaluation figures.
const (
	ClassLinear QueryClass = iota
	ClassLinearAgg
	ClassTwoWayJoin
	ClassTwoWayJoinAgg
	ClassThreeWayJoin
	ClassThreeWayJoinAgg
)

var queryClassNames = [...]string{
	"Linear", "Linear+Agg", "2-Way-Join", "2-Way-Join+Agg", "3-Way-Join", "3-Way-Join+Agg",
}

func (c QueryClass) String() string {
	if c < 0 || int(c) >= len(queryClassNames) {
		return fmt.Sprintf("QueryClass(%d)", int(c))
	}
	return queryClassNames[c]
}

// Class derives the query class of the plan.
func (q *Query) Class() QueryClass {
	joins := q.CountType(OpJoin)
	agg := q.CountType(OpAggregate) > 0
	switch joins {
	case 0:
		if agg {
			return ClassLinearAgg
		}
		return ClassLinear
	case 1:
		if agg {
			return ClassTwoWayJoinAgg
		}
		return ClassTwoWayJoin
	default:
		if agg {
			return ClassThreeWayJoinAgg
		}
		return ClassThreeWayJoin
	}
}
