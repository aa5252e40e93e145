package stream

import (
	"fmt"
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

// Topology is the data flow of a plan, derived from its edges alone: a
// topological order and each operator's producers and consumers. It reads
// no operator, so it serves any DAG over the operator indices. Its slices
// share one backing array; callers must not modify them.
type Topology struct {
	order         []int
	upAt, ups     []int // operator i's producers are ups[upAt[i]:upAt[i+1]]
	downAt, downs []int // and its consumers downs[downAt[i]:downAt[i+1]]
}

// Order returns the operator indices in topological order of the data flow
// (sources first, sink last). It is deterministic: of the operators whose
// producers are all ordered, the lowest index comes next.
func (t *Topology) Order() []int { return t.order }

// Ups returns the operators feeding operator i, in edge order.
func (t *Topology) Ups(i int) []int { return t.ups[t.upAt[i]:t.upAt[i+1]:t.upAt[i+1]] }

// Downs returns the operators consuming operator i's output, in edge order.
func (t *Topology) Downs(i int) []int { return t.downs[t.downAt[i]:t.downAt[i+1]:t.downAt[i+1]] }

// Topology derives the plan's data flow in one allocation. It fails on an
// edge outside the operator range and on a cycle.
func (q *Query) Topology() (Topology, error) {
	n, m := len(q.Ops), len(q.Edges)
	for _, e := range q.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return Topology{}, fmt.Errorf("edge %v out of range (n=%d)", e, n)
		}
	}
	s := make([]int, 4*n+2+2*m)
	t := Topology{order: s[:n], upAt: s[n : 2*n+1], downAt: s[2*n+1 : 3*n+2],
		ups: s[3*n+2 : 3*n+2+m], downs: s[3*n+2+m : 3*n+2+2*m]}
	indeg := s[3*n+2+2*m:]
	// Counting sort by head and by tail: the counts summed up are each
	// operator's end offset, and placing the edges from the last one,
	// counting each offset down, leaves the lists in edge order and the
	// offsets at their starts.
	for _, e := range q.Edges {
		t.upAt[e[1]]++
		t.downAt[e[0]]++
	}
	for i := 1; i <= n; i++ {
		t.upAt[i] += t.upAt[i-1]
		t.downAt[i] += t.downAt[i-1]
	}
	for k := m - 1; k >= 0; k-- {
		u, w := q.Edges[k][0], q.Edges[k][1]
		t.upAt[w]--
		t.ups[t.upAt[w]] = u
		t.downAt[u]--
		t.downs[t.downAt[u]] = w
	}
	// Kahn's algorithm: order[:head] is visited, and order[head:tail] holds
	// the ready operators in ascending index order, so the lowest ready
	// index is visited next.
	tail := 0
	for i := range indeg {
		if indeg[i] = t.upAt[i+1] - t.upAt[i]; indeg[i] == 0 {
			t.order[tail] = i
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		for _, w := range t.Downs(t.order[head]) {
			if indeg[w]--; indeg[w] > 0 {
				continue
			}
			k := tail
			for ; k > head+1 && t.order[k-1] > w; k-- {
				t.order[k] = t.order[k-1]
			}
			t.order[k] = w
			tail++
		}
	}
	if tail != n {
		return Topology{}, fmt.Errorf("query graph has a cycle")
	}
	return t, nil
}

// Analysis is a query that passed Analyze, with its Rates (and Topology):
// the one form in which the simulator, the placement search, the
// featurizers and the control plane take a query. Any number of
// goroutines may read one; its query must not be modified after.
type Analysis struct {
	q *Query
	Rates
}

// Analyze is the one check of a query: exactly one sink, at least one
// source, a connected acyclic flow, join fan-in of two, unary fan-in for
// filters/aggregations/sinks, and per-operator field validity. A nil
// query reads as empty, and a refusal as "invalid query: " and the fault.
// The rates follow DeriveRates' rules over the Topology the check derived.
func (q *Query) Analyze() (*Analysis, error) {
	t, err := q.validate()
	if err != nil {
		return nil, fmt.Errorf("invalid query: %w", err)
	}
	return q.analysis(t), nil
}

// analysis is the Analysis of q, which validate passed with Topology t.
func (q *Query) analysis(t Topology) *Analysis { return &Analysis{q: q, Rates: q.rates(t)} }

// Query returns the analysed query.
func (a *Analysis) Query() *Query { return a.q }

// validate is Analyze's check (the Builder's too), returning the Topology.
func (q *Query) validate() (Topology, error) {
	if q == nil || len(q.Ops) == 0 {
		return Topology{}, fmt.Errorf("empty query")
	}
	for i, op := range q.Ops {
		if op == nil {
			return Topology{}, fmt.Errorf("operator %d is null", i)
		}
	}
	if q.CountType(OpSource) == 0 {
		return Topology{}, fmt.Errorf("query has no source")
	}
	nSinks := q.CountType(OpSink)
	if nSinks != 1 {
		return Topology{}, fmt.Errorf("query must have exactly one sink, got %d", nSinks)
	}
	t, err := q.Topology()
	if err != nil {
		return Topology{}, err
	}
	for i, op := range q.Ops {
		if err := op.Validate(); err != nil {
			return Topology{}, err
		}
		ups, downs := len(t.Ups(i)), len(t.Downs(i))
		switch {
		case op.Type == OpSource && ups != 0:
			return Topology{}, fmt.Errorf("source %s has %d inputs", op.ID, ups)
		case op.Type == OpJoin && ups != 2:
			return Topology{}, fmt.Errorf("join %s must have exactly two inputs, got %d", op.ID, ups)
		case op.Type != OpSource && op.Type != OpJoin && ups != 1:
			return Topology{}, fmt.Errorf("%v %s must have exactly one input, got %d", op.Type, op.ID, ups)
		case op.Type == OpSink && downs != 0:
			return Topology{}, fmt.Errorf("sink %s has %d consumers", op.ID, downs)
		case op.Type != OpSink && downs != 1:
			return Topology{}, fmt.Errorf("%v %s must have exactly one consumer, got %d", op.Type, op.ID, downs)
		}
	}
	return t, nil
}

// Rates holds the derived steady-state logical rates of a plan, ignoring
// resource limits: the arrival and output tuple rates per operator, the
// serialized tuple size of each operator's output stream, and the
// topology they were derived over, for their readers to walk. In, Out
// and TupleBytes share one backing array; callers must not append to
// them.
type Rates struct {
	In         []float64 // tuples/s arriving at each operator
	Out        []float64 // tuples/s emitted by each operator
	TupleBytes []float64 // serialized bytes of one output tuple
	Width      []int     // attributes per output tuple
	Topo       Topology
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
// validate the plan: it reads each operator's inputs as the operator's
// type requires (a filter's, aggregation's or sink's first input, a join's
// first two), so a plan that may be malformed goes through Analyze
// instead. Its one reader is the simulator's two-sink fan-out tests, whose
// plans Analyze refuses.
func (q *Query) DeriveRates() (Rates, error) {
	topo, err := q.Topology()
	if err != nil {
		return Rates{}, err
	}
	return q.rates(topo), nil
}

// rates propagates the rates over the plan's topology.
func (q *Query) rates(topo Topology) Rates {
	n := len(q.Ops)
	f := make([]float64, 4*n)
	r := Rates{
		In:         f[:n],
		Out:        f[n : 2*n],
		TupleBytes: f[2*n : 3*n],
		Width:      make([]int, n),
		Topo:       topo,
	}
	avgBytes := f[3*n:]
	for _, i := range topo.Order() {
		op := q.Ops[i]
		ups := topo.Ups(i)
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
	return r
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
