package stream

import "fmt"

// Builder assembles query plans with a fluent API. Every Add* method
// returns the index of the new operator so edges can be wired explicitly,
// while Then* helpers chain onto the most recently added operator.
//
//	b := stream.NewBuilder()
//	s := b.AddSource(1000, []stream.DataType{stream.TypeInt, stream.TypeDouble})
//	f := b.AddFilter(stream.FilterGT, stream.TypeInt, 0.5)
//	b.Connect(s, f)
//	k := b.AddSink()
//	b.Connect(f, k)
//	q, err := b.Build()
type Builder struct {
	q      Query
	nextID map[OpType]int
	err    error
}

// NewBuilder returns an empty query builder.
func NewBuilder() *Builder {
	return &Builder{nextID: make(map[OpType]int)}
}

func (b *Builder) add(op *Operator) int {
	n := b.nextID[op.Type]
	b.nextID[op.Type] = n + 1
	if op.ID == "" {
		op.ID = fmt.Sprintf("%s-%d", op.Type, n)
	}
	b.q.Ops = append(b.q.Ops, op)
	return len(b.q.Ops) - 1
}

// AddSource appends a source operator emitting tuples with the given schema
// at the given event rate (tuples/s) and returns its index.
func (b *Builder) AddSource(eventRate float64, schema []DataType) int {
	return b.add(&Operator{
		Type:       OpSource,
		EventRate:  eventRate,
		FieldTypes: append([]DataType(nil), schema...),
	})
}

// AddFilter appends a filter operator and returns its index.
func (b *Builder) AddFilter(fn FilterFn, literal DataType, selectivity float64) int {
	return b.add(&Operator{
		Type:        OpFilter,
		FilterFn:    fn,
		LiteralType: literal,
		Selectivity: selectivity,
	})
}

// AddJoin appends a windowed join operator and returns its index. Wire its
// two inputs with Connect.
func (b *Builder) AddJoin(key DataType, w Window, selectivity float64) int {
	return b.add(&Operator{
		Type:        OpJoin,
		JoinKeyType: key,
		Window:      &w,
		Selectivity: selectivity,
	})
}

// AddAggregate appends a windowed aggregation and returns its index. Pass
// hasGroupBy=false for a global aggregate; groupBy is then ignored.
func (b *Builder) AddAggregate(fn AggFn, value DataType, groupBy DataType, hasGroupBy bool, w Window, selectivity float64) int {
	return b.add(&Operator{
		Type:         OpAggregate,
		AggFn:        fn,
		AggValueType: value,
		GroupByType:  groupBy,
		HasGroupBy:   hasGroupBy,
		Window:       &w,
		Selectivity:  selectivity,
	})
}

// AddSink appends the sink operator and returns its index.
func (b *Builder) AddSink() int {
	return b.add(&Operator{Type: OpSink})
}

// Connect adds a data-flow edge from operator index from to index to.
func (b *Builder) Connect(from, to int) *Builder {
	if b.err != nil {
		return b
	}
	n := len(b.q.Ops)
	if from < 0 || from >= n || to < 0 || to >= n {
		b.err = fmt.Errorf("connect(%d,%d): index out of range (n=%d)", from, to, n)
		return b
	}
	b.q.Edges = append(b.q.Edges, [2]int{from, to})
	return b
}

// Chain connects a sequence of operator indices left to right.
func (b *Builder) Chain(idxs ...int) *Builder {
	for i := 0; i+1 < len(idxs); i++ {
		b.Connect(idxs[i], idxs[i+1])
	}
	return b
}

// Build validates the plan and returns a copy of it.
func (b *Builder) Build() (*Query, error) {
	q, _, err := b.build()
	return q, err
}

// Analyze validates a copy of the plan and returns its Analysis, equal
// to what the copy's own Analyze returns, from the one Topology the check
// derived: a caller that would analyse the built query next (a workload
// generator handing its queries to the simulator) checks it once.
func (b *Builder) Analyze() (*Analysis, error) {
	q, t, err := b.build()
	if err != nil {
		return nil, fmt.Errorf("invalid query: %w", err)
	}
	return q.analysis(t), nil
}

// build is Build's check on a copy of the plan, with the Topology it
// derived.
func (b *Builder) build() (*Query, Topology, error) {
	if b.err != nil {
		return nil, Topology{}, b.err
	}
	q := b.q.Clone()
	t, err := q.validate()
	if err != nil {
		return nil, Topology{}, err
	}
	return q, t, nil
}

// MustBuild is Build for tests and examples with known-good plans; it
// panics on error.
func (b *Builder) MustBuild() *Query {
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}
