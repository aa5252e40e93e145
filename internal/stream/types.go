// Package stream defines the streaming query algebra used throughout the
// COSTREAM reproduction: data types, operators (source, filter, windowed
// join, windowed aggregation, sink), window specifications and DAG-shaped
// query plans together with the rate and selectivity propagation rules of
// the paper (Definitions 6-8). A plan's data flow, its topological order
// and each operator's producers and consumers, is one Topology. Analyze,
// the one check of a plan, derives it and the Rates once, and every layer
// below the plan's entry point takes the plan only as that Analysis.
package stream

import (
	"fmt"
	"math"
)

// DataType enumerates the attribute types supported by the benchmark
// workloads (Table II of the paper).
type DataType int

// Supported attribute data types.
const (
	TypeInt DataType = iota
	TypeString
	TypeDouble
)

var dataTypeNames = [...]string{"int", "string", "double"}

func (d DataType) String() string {
	if d < 0 || int(d) >= len(dataTypeNames) {
		return fmt.Sprintf("DataType(%d)", int(d))
	}
	return dataTypeNames[d]
}

// AllDataTypes lists every supported data type, useful for generators.
func AllDataTypes() []DataType { return []DataType{TypeInt, TypeString, TypeDouble} }

// Bytes returns the serialized width in bytes of one value of the type,
// used by the simulator to compute tuple sizes and window state.
func (d DataType) Bytes() float64 {
	switch d {
	case TypeInt:
		return 8
	case TypeDouble:
		return 8
	case TypeString:
		return 32 // average payload string
	default:
		return 8
	}
}

// OpType enumerates operator kinds in a query plan.
type OpType int

// Operator kinds. Windows are attached to joins and aggregations, matching
// the paper's algebraic operator set.
const (
	OpSource OpType = iota
	OpFilter
	OpJoin
	OpAggregate
	OpSink
)

var opTypeNames = [...]string{"source", "filter", "join", "aggregate", "sink"}

func (o OpType) String() string {
	if o < 0 || int(o) >= len(opTypeNames) {
		return fmt.Sprintf("OpType(%d)", int(o))
	}
	return opTypeNames[o]
}

// FilterFn enumerates the comparison functions of filter predicates
// (Table II: <, >, <=, >=, !=, startswith, endswith).
type FilterFn int

// Filter comparison functions.
const (
	FilterLT FilterFn = iota
	FilterGT
	FilterLE
	FilterGE
	FilterNE
	FilterStartsWith
	FilterEndsWith
)

var filterFnNames = [...]string{"<", ">", "<=", ">=", "!=", "startswith", "endswith"}

func (f FilterFn) String() string {
	if f < 0 || int(f) >= len(filterFnNames) {
		return fmt.Sprintf("FilterFn(%d)", int(f))
	}
	return filterFnNames[f]
}

// AllFilterFns lists every comparison function.
func AllFilterFns() []FilterFn {
	return []FilterFn{FilterLT, FilterGT, FilterLE, FilterGE, FilterNE, FilterStartsWith, FilterEndsWith}
}

// StringOnly reports whether the function only applies to string operands.
func (f FilterFn) StringOnly() bool { return f == FilterStartsWith || f == FilterEndsWith }

// AggFn enumerates aggregation functions (Table II: min, max, mean, avg).
type AggFn int

// Aggregation functions. The paper lists both "mean" and "avg"; both are
// kept so generated workloads match the published feature grid.
const (
	AggMin AggFn = iota
	AggMax
	AggMean
	AggAvg
)

var aggFnNames = [...]string{"min", "max", "mean", "avg"}

func (a AggFn) String() string {
	if a < 0 || int(a) >= len(aggFnNames) {
		return fmt.Sprintf("AggFn(%d)", int(a))
	}
	return aggFnNames[a]
}

// AllAggFns lists every aggregation function.
func AllAggFns() []AggFn { return []AggFn{AggMin, AggMax, AggMean, AggAvg} }

// WindowType is the shifting strategy of a window.
type WindowType int

// Window shifting strategies.
const (
	WindowSliding WindowType = iota
	WindowTumbling
)

func (w WindowType) String() string {
	if w == WindowSliding {
		return "sliding"
	}
	return "tumbling"
}

// WindowPolicy is the counting mode of a window.
type WindowPolicy int

// Window counting modes.
const (
	WindowCountBased WindowPolicy = iota
	WindowTimeBased
)

func (w WindowPolicy) String() string {
	if w == WindowCountBased {
		return "count"
	}
	return "time"
}

// Window describes a window specification attached to a join or an
// aggregation. Size and Slide are counted in tuples for count-based windows
// and in seconds for time-based windows. Tumbling windows have Slide == Size.
type Window struct {
	Type   WindowType
	Policy WindowPolicy
	Size   float64
	Slide  float64
}

// Validate reports an error if the window specification is inconsistent.
func (w *Window) Validate() error {
	if !(w.Size > 0) || math.IsInf(w.Size, 1) {
		return fmt.Errorf("window size must be finite and positive, got %v", w.Size)
	}
	if !(w.Slide > 0) || math.IsInf(w.Slide, 1) {
		return fmt.Errorf("window slide must be finite and positive, got %v", w.Slide)
	}
	if w.Slide > w.Size {
		return fmt.Errorf("window slide %v exceeds size %v", w.Slide, w.Size)
	}
	if w.Type == WindowTumbling && w.Slide != w.Size {
		return fmt.Errorf("tumbling window requires slide == size, got slide=%v size=%v", w.Slide, w.Size)
	}
	return nil
}

// ExtentSeconds returns the time span covered by one window instance given
// the tuple arrival rate of the windowed stream.
func (w *Window) ExtentSeconds(arrivalRate float64) float64 {
	if w.Policy == WindowTimeBased {
		return w.Size
	}
	if arrivalRate <= 0 {
		return 0
	}
	return w.Size / arrivalRate
}

// ExtentTuples returns the number of tuples held by one window instance
// given the tuple arrival rate of the windowed stream.
func (w *Window) ExtentTuples(arrivalRate float64) float64 {
	if w.Policy == WindowCountBased {
		return w.Size
	}
	return w.Size * arrivalRate
}

// FiresPerSecond returns how often the window emits results per second
// given the arrival rate; sliding windows fire once per slide.
func (w *Window) FiresPerSecond(arrivalRate float64) float64 {
	if w.Policy == WindowTimeBased {
		if w.Slide <= 0 {
			return 0
		}
		return 1 / w.Slide
	}
	if w.Slide <= 0 || arrivalRate <= 0 {
		return 0
	}
	return arrivalRate / w.Slide
}
