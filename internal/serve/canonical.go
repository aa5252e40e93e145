package serve

import (
	"bytes"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"costream/internal/hardware"
	"costream/internal/stream"
)

// readPredict reads a /v1/predict body in one pass, straight into the
// request's values, when the body is in the canonical encoding: what
// json.Marshal of the wire types writes, and so what every client in this
// repository sends. It declines (ok false) every other body, valid or
// not, and the caller then decodes it with decodeRequest, which stays the
// only authority on what is accepted and the only source of error
// messages. The canonical subset is
//
//   - objects with the exact field names of the wire types, each at most
//     once, in any order (a missing field stays zero);
//   - null only where encoding/json stores nil: the query, the cluster, a
//     slice, an operator, a host or a window;
//   - strings with no escapes, no control bytes and only valid UTF-8,
//     copied out of the body;
//   - numbers in JSON's grammar, parsed by strconv as encoding/json parses
//     them, so the bits are the same; integer fields take integer
//     literals in the int range, and an edge is what stream.Edge's
//     UnmarshalJSON accepts;
//   - JSON whitespace between tokens, and nothing but whitespace after
//     the document.
//
// Inside it readPredict returns what decodeRequest returns, and it never
// accepts a body decodeRequest rejects; FuzzDecodePredict checks both.
func readPredict(body []byte) (PredictRequest, bool) {
	r := reader{buf: body, ok: true}
	var req PredictRequest
	var seen uint32
	for more := r.enter('{', '}'); more; more = r.more('}') {
		switch r.member(predictFields, &seen) {
		case "query":
			req.Query = r.query()
		case "cluster":
			req.Cluster = r.cluster()
		case "placement":
			req.Placement = readList(&r, r.integer)
		}
	}
	r.space()
	if !r.ok || r.pos != len(r.buf) {
		return PredictRequest{}, false
	}
	return req, true
}

// The member names of each wire type, as encoding/json writes them.
var (
	predictFields  = []string{"query", "cluster", "placement"}
	queryFields    = []string{"Ops", "Edges"}
	operatorFields = []string{"ID", "Type", "EventRate", "FieldTypes", "FilterFn", "LiteralType",
		"JoinKeyType", "AggFn", "AggValueType", "GroupByType", "HasGroupBy", "Window", "Selectivity"}
	windowFields  = []string{"Type", "Policy", "Size", "Slide"}
	clusterFields = []string{"Hosts"}
	hostFields    = []string{"ID", "CPU", "RAMMB", "NetLatencyMS", "NetBandwidthMbps"}
)

// query reads a *stream.Query; the readers below are its parts. They are
// written for any route's body, though only /v1/predict uses them.
func (r *reader) query() *stream.Query {
	if r.null() {
		return nil
	}
	q := new(stream.Query)
	var seen uint32
	for more := r.enter('{', '}'); more; more = r.more('}') {
		switch r.member(queryFields, &seen) {
		case "Ops":
			q.Ops = readList(r, r.operator)
		case "Edges":
			q.Edges = readList(r, r.edge)
		}
	}
	return q
}

func (r *reader) operator() *stream.Operator {
	if r.null() {
		return nil
	}
	op := new(stream.Operator)
	var seen uint32
	for more := r.enter('{', '}'); more; more = r.more('}') {
		switch r.member(operatorFields, &seen) {
		case "ID":
			op.ID = string(r.str())
		case "Type":
			op.Type = stream.OpType(r.integer())
		case "EventRate":
			op.EventRate = r.float()
		case "FieldTypes":
			op.FieldTypes = readList(r, r.dataType)
		case "FilterFn":
			op.FilterFn = stream.FilterFn(r.integer())
		case "LiteralType":
			op.LiteralType = stream.DataType(r.integer())
		case "JoinKeyType":
			op.JoinKeyType = stream.DataType(r.integer())
		case "AggFn":
			op.AggFn = stream.AggFn(r.integer())
		case "AggValueType":
			op.AggValueType = stream.DataType(r.integer())
		case "GroupByType":
			op.GroupByType = stream.DataType(r.integer())
		case "HasGroupBy":
			op.HasGroupBy = r.boolean()
		case "Window":
			op.Window = r.window()
		case "Selectivity":
			op.Selectivity = r.float()
		}
	}
	return op
}

func (r *reader) window() *stream.Window {
	if r.null() {
		return nil
	}
	w := new(stream.Window)
	var seen uint32
	for more := r.enter('{', '}'); more; more = r.more('}') {
		switch r.member(windowFields, &seen) {
		case "Type":
			w.Type = stream.WindowType(r.integer())
		case "Policy":
			w.Policy = stream.WindowPolicy(r.integer())
		case "Size":
			w.Size = r.float()
		case "Slide":
			w.Slide = r.float()
		}
	}
	return w
}

// edge hands the text up to the next ']' to stream.Edge's UnmarshalJSON,
// the one check of an edge's shape; anything else there fails it.
func (r *reader) edge() stream.Edge {
	r.space()
	var e stream.Edge
	end := bytes.IndexByte(r.buf[r.pos:], ']') + 1
	if end == 0 || e.UnmarshalJSON(r.buf[r.pos:r.pos+end]) != nil {
		r.fail()
		return e
	}
	r.pos += end
	return e
}

func (r *reader) cluster() *hardware.Cluster {
	if r.null() {
		return nil
	}
	c := new(hardware.Cluster)
	var seen uint32
	for more := r.enter('{', '}'); more; more = r.more('}') {
		if r.member(clusterFields, &seen) == "Hosts" {
			c.Hosts = readList(r, r.host)
		}
	}
	return c
}

func (r *reader) host() *hardware.Host {
	if r.null() {
		return nil
	}
	h := new(hardware.Host)
	var seen uint32
	for more := r.enter('{', '}'); more; more = r.more('}') {
		switch r.member(hostFields, &seen) {
		case "ID":
			h.ID = string(r.str())
		case "CPU":
			h.CPU = r.float()
		case "RAMMB":
			h.RAMMB = r.float()
		case "NetLatencyMS":
			h.NetLatencyMS = r.float()
		case "NetBandwidthMbps":
			h.NetBandwidthMbps = r.float()
		}
	}
	return h
}

// readList reads null as a nil slice and an array as a slice of exactly
// its elements, an empty array as an empty non-nil one, as encoding/json
// does. Elements gather on the stack first, so a list of up to 32 costs
// one allocation.
func readList[T any](r *reader, elem func() T) []T {
	if r.null() {
		return nil
	}
	var stack [32]T
	s := stack[:0]
	for more := r.enter('[', ']'); more; more = r.more(']') {
		s = append(s, elem())
	}
	return append(make([]T, 0, len(s)), s...)
}

// reader is the cursor of readPredict. Once the input leaves the
// canonical subset, ok is false and every later read fails at once.
type reader struct {
	buf []byte
	pos int
	ok  bool
}

func (r *reader) fail() {
	r.ok = false
	r.pos = len(r.buf)
}

// space skips JSON whitespace.
func (r *reader) space() {
	for r.pos < len(r.buf) {
		switch r.buf[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// literal consumes lit, after whitespace, if it comes next.
func (r *reader) literal(lit string) bool {
	r.space()
	end := r.pos + len(lit)
	if end > len(r.buf) || string(r.buf[r.pos:end]) != lit {
		return false
	}
	r.pos = end
	return true
}

// consume consumes c, after whitespace, if it comes next.
func (r *reader) consume(c byte) bool {
	r.space()
	if r.pos == len(r.buf) || r.buf[r.pos] != c {
		return false
	}
	r.pos++
	return true
}

func (r *reader) null() bool { return r.literal("null") }

// expect consumes c, after whitespace, or fails.
func (r *reader) expect(c byte) {
	if !r.consume(c) {
		r.fail()
	}
}

// enter consumes open and reports whether an element follows; if close
// comes first it consumes that too.
func (r *reader) enter(open, close byte) bool {
	r.expect(open)
	return r.ok && !r.consume(close)
}

// more consumes the comma or the close after an element and reports
// whether another element follows.
func (r *reader) more(close byte) bool {
	if r.consume(',') {
		return true
	}
	if !r.consume(close) {
		r.fail()
	}
	return false
}

// member reads an object member's name and colon and returns the name.
// A name outside names, or one already read in this object (its bit in
// seen), fails the reader and returns "". names is in the order
// encoding/json writes them, so the first unseen one is tried first.
func (r *reader) member(names []string, seen *uint32) string {
	key := r.str()
	r.expect(':')
	if i := bits.TrailingZeros32(^*seen); i < len(names) && string(key) == names[i] {
		*seen |= 1 << i
		return names[i]
	}
	for i, name := range names {
		if string(key) == name && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			return name
		}
	}
	r.fail()
	return ""
}

// str reads a string with no escapes, no control bytes and only valid
// UTF-8, and returns its contents, which alias the body. encoding/json
// rewrites the other strings (unescapes, or replaces invalid bytes with
// U+FFFD) or refuses them.
func (r *reader) str() []byte {
	r.expect('"')
	n := bytes.IndexByte(r.buf[r.pos:], '"')
	if n < 0 {
		r.fail()
		return nil
	}
	s := r.buf[r.pos : r.pos+n]
	ascii := true
	for _, c := range s {
		if c < ' ' || c == '\\' {
			r.fail()
			return nil
		}
		ascii = ascii && c < utf8.RuneSelf
	}
	if !ascii && !utf8.Valid(s) {
		r.fail()
		return nil
	}
	r.pos += n + 1
	return s
}

// number reads a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text
// and whether it is an integer literal (no fraction, no exponent).
func (r *reader) number() ([]byte, bool) {
	r.space()
	b, start := r.buf, r.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		r.fail()
		return nil, false
	}
	integer := true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			r.fail()
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			r.fail()
			return nil, false
		}
		i = j
	}
	r.pos = i
	return b[start:i], integer
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a float64 field as encoding/json does: ParseFloat, and a
// value out of range (1e400) is refused.
func (r *reader) float() float64 {
	text, _ := r.number()
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		r.fail()
	}
	return f
}

// integer reads an int-kinded field as encoding/json does: an integer
// literal, parsed by ParseInt, in the int range.
func (r *reader) integer() int {
	text, integer := r.number()
	if !integer {
		r.fail()
		return 0
	}
	n, err := strconv.ParseInt(string(text), 10, 0)
	if err != nil {
		r.fail()
	}
	return int(n)
}

func (r *reader) dataType() stream.DataType { return stream.DataType(r.integer()) }

func (r *reader) boolean() bool {
	switch {
	case r.literal("true"):
		return true
	case r.literal("false"):
		return false
	}
	r.fail()
	return false
}
