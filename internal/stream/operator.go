package stream

import (
	"fmt"
	"math"
)

// Operator is a vertex of a streaming query plan. Exactly the fields
// relevant to the operator's Type are populated; the remaining fields are
// zero. The field set corresponds to the transferable features of Table I.
type Operator struct {
	ID   string
	Type OpType

	// Source fields.
	EventRate  float64    // tuples per second emitted by the source
	FieldTypes []DataType // schema of the emitted tuples

	// Filter fields.
	FilterFn    FilterFn
	LiteralType DataType

	// Join fields.
	JoinKeyType DataType

	// Aggregation fields.
	AggFn        AggFn
	AggValueType DataType
	GroupByType  DataType
	HasGroupBy   bool

	// Window specification, set for joins and aggregations.
	Window *Window

	// Selectivity per Definitions 6-8. Used by filter, join and
	// aggregation operators; ignored otherwise.
	Selectivity float64
}

// Validate checks the per-type field invariants.
func (o *Operator) Validate() error {
	switch o.Type {
	case OpSource:
		if !(o.EventRate > 0) || math.IsInf(o.EventRate, 1) {
			return fmt.Errorf("source %s: event rate must be finite and positive, got %v", o.ID, o.EventRate)
		}
		if len(o.FieldTypes) == 0 {
			return fmt.Errorf("source %s: empty schema", o.ID)
		}
	case OpFilter:
		if !(o.Selectivity >= 0 && o.Selectivity <= 1) {
			return fmt.Errorf("filter %s: selectivity %v out of [0,1]", o.ID, o.Selectivity)
		}
		if o.FilterFn.StringOnly() && o.LiteralType != TypeString {
			return fmt.Errorf("filter %s: %v requires string literal, got %v", o.ID, o.FilterFn, o.LiteralType)
		}
	case OpJoin:
		if o.Window == nil {
			return fmt.Errorf("join %s: missing window", o.ID)
		}
		if err := o.Window.Validate(); err != nil {
			return fmt.Errorf("join %s: %w", o.ID, err)
		}
		if !(o.Selectivity >= 0 && o.Selectivity <= 1) {
			return fmt.Errorf("join %s: selectivity %v out of [0,1]", o.ID, o.Selectivity)
		}
	case OpAggregate:
		if o.Window == nil {
			return fmt.Errorf("aggregate %s: missing window", o.ID)
		}
		if err := o.Window.Validate(); err != nil {
			return fmt.Errorf("aggregate %s: %w", o.ID, err)
		}
		if !(o.Selectivity >= 0 && o.Selectivity <= 1) {
			return fmt.Errorf("aggregate %s: selectivity %v out of [0,1]", o.ID, o.Selectivity)
		}
	case OpSink:
		// No operator-specific constraints.
	default:
		return fmt.Errorf("operator %s: unknown type %v", o.ID, o.Type)
	}
	return nil
}

// TupleBytes estimates the serialized size in bytes of one tuple with the
// given attribute count, assuming the average attribute mix of the schema
// types. A fixed per-tuple envelope models serialization headers and
// timestamps carried by the DSPS.
func TupleBytes(width int, avgFieldBytes float64) float64 {
	const envelope = 24
	if width <= 0 {
		return envelope
	}
	if avgFieldBytes <= 0 {
		avgFieldBytes = 8
	}
	return envelope + float64(width)*avgFieldBytes
}

// AvgFieldBytes returns the mean serialized attribute size of a schema.
func AvgFieldBytes(types []DataType) float64 {
	if len(types) == 0 {
		return 8
	}
	var sum float64
	for _, t := range types {
		sum += t.Bytes()
	}
	return sum / float64(len(types))
}
