package stream

import "testing"

func TestEnumListsComplete(t *testing.T) {
	if got := len(AllDataTypes()); got != 3 {
		t.Errorf("AllDataTypes = %d entries, want 3", got)
	}
	if got := len(AllFilterFns()); got != 7 {
		t.Errorf("AllFilterFns = %d entries, want 7", got)
	}
	if got := len(AllAggFns()); got != 4 {
		t.Errorf("AllAggFns = %d entries, want 4", got)
	}
}

func TestDataTypeBytes(t *testing.T) {
	if TypeInt.Bytes() != 8 || TypeDouble.Bytes() != 8 {
		t.Error("numeric types must be 8 bytes")
	}
	if TypeString.Bytes() <= TypeInt.Bytes() {
		t.Error("strings must serialize larger than ints")
	}
	if DataType(42).Bytes() <= 0 {
		t.Error("unknown type must have positive fallback size")
	}
}

func TestTupleBytesDegenerate(t *testing.T) {
	if got := TupleBytes(0, 8); got != 24 {
		t.Errorf("zero-width tuple = %v, want envelope 24", got)
	}
	if got := TupleBytes(2, 0); got != 24+16 {
		t.Errorf("zero avg bytes must default to 8: got %v", got)
	}
}

func TestSinkMissing(t *testing.T) {
	q := &Query{Ops: []*Operator{{Type: OpSource, EventRate: 1, FieldTypes: []DataType{TypeInt}}}}
	if q.Sink() != -1 {
		t.Error("Sink() on sink-less plan must be -1")
	}
}

func TestMustBuildPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on invalid plan must panic")
		}
	}()
	b := NewBuilder()
	b.AddSource(0, []DataType{TypeInt})
	b.MustBuild()
}

func TestValidateOperatorKinds(t *testing.T) {
	bad := &Operator{Type: OpType(77)}
	if err := bad.Validate(); err == nil {
		t.Error("unknown operator type accepted")
	}
	agg := &Operator{Type: OpAggregate}
	if err := agg.Validate(); err == nil {
		t.Error("aggregate without window accepted")
	}
	aggBadWin := &Operator{Type: OpAggregate, Window: &Window{Size: -1, Slide: 1}}
	if err := aggBadWin.Validate(); err == nil {
		t.Error("aggregate with invalid window accepted")
	}
	aggBadSel := &Operator{
		Type:        OpAggregate,
		Window:      &Window{Type: WindowTumbling, Policy: WindowCountBased, Size: 10, Slide: 10},
		Selectivity: 2,
	}
	if err := aggBadSel.Validate(); err == nil {
		t.Error("aggregate selectivity > 1 accepted")
	}
	joinBadSel := &Operator{
		Type:        OpJoin,
		Window:      &Window{Type: WindowTumbling, Policy: WindowCountBased, Size: 10, Slide: 10},
		Selectivity: -0.1,
	}
	if err := joinBadSel.Validate(); err == nil {
		t.Error("join selectivity < 0 accepted")
	}
}

func TestQueryValidateFanouts(t *testing.T) {
	// Source feeding two consumers is rejected (tree-shaped plans only).
	q := &Query{
		Ops: []*Operator{
			{Type: OpSource, EventRate: 1, FieldTypes: []DataType{TypeInt}},
			{Type: OpFilter, Selectivity: 0.5},
			{Type: OpFilter, Selectivity: 0.5},
			{Type: OpSink},
		},
		Edges: []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
	if _, err := q.Analyze(); err == nil {
		t.Error("fan-out plan accepted")
	}
}

// TestAnalyzeNilQueryReadsEmpty: a nil query is refused as an empty one.
func TestAnalyzeNilQueryReadsEmpty(t *testing.T) {
	const want = "invalid query: empty query"
	if a, err := (*Query)(nil).Analyze(); a != nil || err == nil || err.Error() != want {
		t.Errorf("Analyze() = %v, %v; want nil, %q", a, err, want)
	}
}

// TestQueryValidateNullOperator: a null operator is refused naming its
// index before any check reads an operator.
func TestQueryValidateNullOperator(t *testing.T) {
	q := &Query{
		Ops: []*Operator{
			{Type: OpSource, EventRate: 1, FieldTypes: []DataType{TypeInt}},
			{Type: OpSink},
			nil,
		},
		Edges: []Edge{{0, 1}},
	}
	const want = "invalid query: operator 2 is null"
	if _, err := q.Analyze(); err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
