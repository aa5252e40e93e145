package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"costream/internal/hardware"
	"costream/internal/sim"
	"costream/internal/stream"
)

// The request readers below are the decoder of every POST body. Each
// reads one request type in one pass, straight into its values, without
// reflection, and keeps nothing of the body: every string is copied out
// of it, so a caller may reuse the body's buffer once a reader returns.
//
// A reader accepts exactly the bodies encoding/json accepts (with
// unknown fields disallowed and nothing but whitespace after the
// document), less those listed below, and returns what encoding/json
// returns: member names of the wire types, in any order; strings with
// their escapes resolved, and invalid UTF-8 or a lone surrogate read as
// U+FFFD; numbers parsed by strconv as encoding/json parses them, integer
// fields only from integer literals in range; an edge by stream.Edge's
// UnmarshalJSON, whose error it passes on. Beyond what encoding/json
// refuses, it refuses
//
//   - null in place of a number, a string, a boolean or the request
//     object itself, where encoding/json would leave the zero value (null
//     stays accepted where encoding/json stores nil: the query, the
//     cluster, an operator, a host, a window, the seed, or any slice);
//   - a member repeated in one object, of which encoding/json keeps the
//     last (or merges the two objects);
//   - a member name that matches a field only by case folding, such as
//     "Query" for "query".
//
// TestReaderRefusals has a case for each, and FuzzDecodePredict holds
// every reader to this contract. A refusal names the path of the value
// at fault (query.Ops[0].Selectivity), and a syntax error its byte
// offset; the path is built only on failure.

// readPredict reads a /v1/predict body.
func readPredict(body []byte) (PredictRequest, error) {
	r := reader{buf: body}
	var req PredictRequest
	for m := r.object(predictFields); r.next(&m); {
		switch m.key {
		case "query":
			req.Query = r.query()
		case "cluster":
			req.Cluster = r.cluster()
		case "placement":
			req.Placement = r.placement()
		}
	}
	return req, r.done()
}

// readPredictBatch reads a /v1/predict-batch body.
func readPredictBatch(body []byte) (PredictBatchRequest, error) {
	r := reader{buf: body}
	var req PredictBatchRequest
	for m := r.object(batchFields); r.next(&m); {
		switch m.key {
		case "query":
			req.Query = r.query()
		case "cluster":
			req.Cluster = r.cluster()
		case "placements":
			req.Placements = readList(&r, r.placement)
		}
	}
	return req, r.done()
}

// readOptimize reads a /v1/optimize body.
func readOptimize(body []byte) (OptimizeRequest, error) {
	r := reader{buf: body}
	var req OptimizeRequest
	for m := r.object(optimizeFields); r.next(&m); {
		switch m.key {
		case "query":
			req.Query = r.query()
		case "cluster":
			req.Cluster = r.cluster()
		case "candidates":
			req.Candidates = r.integer()
		case "rounds":
			req.Rounds = r.integer()
		case "objective":
			req.Objective = r.string()
		case "strategy":
			req.Strategy = r.string()
		case "beam_width":
			req.BeamWidth = r.integer()
		case "seed":
			if !r.null() {
				seed := r.parseInt(64)
				req.Seed = &seed
			}
		case "debug":
			req.Debug = r.boolean()
		}
	}
	return req, r.done()
}

// readDeploy reads a POST /v1/deployments body.
func readDeploy(body []byte) (DeployRequest, error) {
	r := reader{buf: body}
	var req DeployRequest
	for m := r.object(deployFields); r.next(&m); {
		switch m.key {
		case "id":
			req.ID = r.string()
		case "query":
			req.Query = r.query()
		case "cluster":
			req.Cluster = r.cluster()
		case "placement":
			req.Placement = r.placement()
		}
	}
	return req, r.done()
}

// readHost reads a cordon, uncordon or drain body.
func readHost(body []byte) (HostRequest, error) {
	r := reader{buf: body}
	var req HostRequest
	for m := r.object(hostRequestFields); r.next(&m); {
		if m.key == "host" {
			req.Host = r.string()
		}
	}
	return req, r.done()
}

// The member names of each wire type, as encoding/json writes them.
var (
	predictFields     = []string{"query", "cluster", "placement"}
	batchFields       = []string{"query", "cluster", "placements"}
	optimizeFields    = []string{"query", "cluster", "candidates", "rounds", "objective", "strategy", "beam_width", "seed", "debug"}
	deployFields      = []string{"id", "query", "cluster", "placement"}
	hostRequestFields = []string{"host"}
	queryFields       = []string{"Ops", "Edges"}
	operatorFields    = []string{"ID", "Type", "EventRate", "FieldTypes", "FilterFn", "LiteralType",
		"JoinKeyType", "AggFn", "AggValueType", "GroupByType", "HasGroupBy", "Window", "Selectivity"}
	windowFields  = []string{"Type", "Policy", "Size", "Slide"}
	clusterFields = []string{"Hosts"}
	hostFields    = []string{"ID", "CPU", "RAMMB", "NetLatencyMS", "NetBandwidthMbps"}
)

// query reads a *stream.Query; the readers below are its parts.
func (r *reader) query() *stream.Query {
	if r.null() {
		return nil
	}
	q := new(stream.Query)
	for m := r.object(queryFields); r.next(&m); {
		switch m.key {
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
	for m := r.object(operatorFields); r.next(&m); {
		switch m.key {
		case "ID":
			op.ID = r.string()
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
	for m := r.object(windowFields); r.next(&m); {
		switch m.key {
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

// edge hands the next value's text to stream.Edge's UnmarshalJSON, the
// one check of an edge's shape, as encoding/json does. An edge it
// accepts ends at the first ']', so that text is tried first; only a
// value it refuses is read whole, for the message.
func (r *reader) edge() stream.Edge {
	var e stream.Edge
	r.space()
	if end := bytes.IndexByte(r.buf[r.pos:], ']') + 1; end > 0 && e.UnmarshalJSON(r.buf[r.pos:r.pos+end]) == nil {
		r.pos += end
		return e
	}
	if text := r.skip(0); r.ok() {
		if err := e.UnmarshalJSON(text); err != nil {
			r.fail(err.Error())
		}
	}
	return e
}

func (r *reader) cluster() *hardware.Cluster {
	if r.null() {
		return nil
	}
	c := new(hardware.Cluster)
	for m := r.object(clusterFields); r.next(&m); {
		if m.key == "Hosts" {
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
	for m := r.object(hostFields); r.next(&m); {
		switch m.key {
		case "ID":
			h.ID = r.string()
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

func (r *reader) placement() sim.Placement { return readList(r, r.integer) }

func (r *reader) dataType() stream.DataType { return stream.DataType(r.integer()) }

// readList reads null as a nil slice and an array as a slice of exactly
// its elements, an empty array as an empty non-nil one, as encoding/json
// does. Elements gather on the stack first, so a list of up to 32 costs
// one allocation.
func readList[T any](r *reader, elem func() T) []T {
	if r.null() {
		return nil
	}
	if !r.consume('[') {
		r.mismatch("an array")
		return nil
	}
	var stack [32]T
	s := stack[:0]
	for more := !r.consume(']'); more; more = r.more(']', "after array element") {
		s = append(s, elem())
		if !r.ok() {
			r.path = append(r.path, pathPart{index: len(s) - 1})
			return nil
		}
	}
	return append(make([]T, 0, len(s)), s...)
}

// reader is the cursor of the request readers. After the first failure,
// err holds its message and every later read fails at once; as the
// failure unwinds, each enclosing member and element adds its name or
// index to path, innermost first.
type reader struct {
	buf  []byte
	pos  int
	err  string
	path []pathPart
	// text holds the last string read that had to be decoded.
	text []byte
}

// pathPart is a member name, or when name is empty an element index.
type pathPart struct {
	name  string
	index int
}

func (r *reader) ok() bool { return r.err == "" }

// fail records msg unless an earlier failure is recorded, and ends the
// input.
func (r *reader) fail(msg string) {
	if r.ok() {
		r.err = msg
	}
	r.pos = len(r.buf)
}

// syntax fails the reader at the byte at r.pos, which breaks JSON's
// grammar where what describes.
func (r *reader) syntax(what string) {
	if !r.ok() {
		return
	}
	found := "unexpected end of input"
	if r.pos < len(r.buf) {
		found = fmt.Sprintf("invalid character %q", r.buf[r.pos])
	}
	r.fail(fmt.Sprintf("%s %s at byte offset %d", found, what, r.pos))
}

// mismatch fails the reader where a value of kind is due and what stands
// there is some other value, or no value at all.
func (r *reader) mismatch(kind string) {
	r.space()
	rest := r.buf[r.pos:]
	var what string
	switch {
	case bytes.HasPrefix(rest, []byte("null")):
		what = "null"
	case bytes.HasPrefix(rest, []byte("true")), bytes.HasPrefix(rest, []byte("false")):
		what = "a boolean"
	case len(rest) == 0:
		r.syntax("looking for a value")
		return
	case rest[0] == '"':
		what = "a string"
	case rest[0] == '{':
		what = "an object"
	case rest[0] == '[':
		what = "an array"
	case rest[0] == '-', '0' <= rest[0] && rest[0] <= '9':
		what = "a number"
	default:
		r.syntax("looking for a value")
		return
	}
	r.fail(what + " is not " + kind)
}

// done ends a body, which holds nothing but whitespace after the
// document, and returns the first failure with its path.
func (r *reader) done() error {
	r.space()
	if r.pos != len(r.buf) {
		r.syntax("after the JSON document")
	}
	if r.ok() {
		return nil
	}
	if path := r.where(); path != "" {
		return fmt.Errorf("%s: %s", path, r.err)
	}
	return errors.New(r.err)
}

// where renders path outermost first: query.Ops[0].Selectivity.
func (r *reader) where() string {
	var b strings.Builder
	for i := len(r.path) - 1; i >= 0; i-- {
		if p := r.path[i]; p.name == "" {
			fmt.Fprintf(&b, "[%d]", p.index)
		} else {
			if b.Len() > 0 {
				b.WriteByte('.')
			}
			b.WriteString(p.name)
		}
	}
	return b.String()
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

// more consumes the comma or the close after an element and reports
// whether another element follows; anything else there is a syntax
// error, where names the place.
func (r *reader) more(close byte, where string) bool {
	if r.consume(',') {
		return true
	}
	if !r.consume(close) {
		r.syntax(where)
	}
	return false
}

// members is the state of one object's walk. next reads a member's
// name and colon into key; the caller's switch on key reads its value.
type members struct {
	names []string
	seen  uint32
	key   string
}

// object starts reading an object whose members are names, in the order
// encoding/json writes them.
func (r *reader) object(names []string) members {
	if !r.consume('{') {
		r.mismatch("an object")
	}
	return members{names: names}
}

// next reads the next member's name of the object m walks and reports
// whether one follows. A name outside m.names, or one already read in
// this object, fails the reader. A failure inside the previous member's
// value adds its name to the path.
func (r *reader) next(m *members) bool {
	if !r.ok() {
		if m.key != "" {
			r.path = append(r.path, pathPart{name: m.key})
		}
		return false
	}
	if m.key == "" {
		if r.consume('}') {
			return false
		}
	} else if !r.more('}', "after object member") {
		return false
	}
	if !r.consume('"') {
		r.syntax("looking for an object member name")
		return false
	}
	key := r.strBody()
	if !r.consume(':') {
		r.syntax("after object member name")
		return false
	}
	if i := bits.TrailingZeros32(^m.seen); i < len(m.names) && string(key) == m.names[i] {
		m.seen |= 1 << i
		m.key = m.names[i]
		return true
	}
	for i, name := range m.names {
		if string(key) != name {
			continue
		}
		if m.seen&(1<<i) != 0 {
			r.fail(fmt.Sprintf("duplicate field %q", name))
			return false
		}
		m.seen |= 1 << i
		m.key = name
		return true
	}
	msg := fmt.Sprintf("unknown field %q", key)
	for _, name := range m.names {
		if strings.EqualFold(string(key), name) {
			msg += fmt.Sprintf(" (the field is %q)", name)
		}
	}
	r.fail(msg)
	return false
}

// str reads a string; see strBody.
func (r *reader) str() []byte {
	if !r.consume('"') {
		r.mismatch("a string")
		return nil
	}
	return r.strBody()
}

// string reads a string and copies it out of the body.
func (r *reader) string() string { return string(r.str()) }

// strBody reads a string's contents after its opening quote, and the
// closing quote. Contents with no escape and only valid UTF-8 come back
// in place, aliasing the body; any other string is decoded into r.text.
func (r *reader) strBody() []byte {
	start := r.pos
	ascii := true
	for i := start; i < len(r.buf); i++ {
		switch c := r.buf[i]; {
		case c == '"':
			if s := r.buf[start:i]; ascii || utf8.Valid(s) {
				r.pos = i + 1
				return s
			}
			return r.unquote(start)
		case c == '\\':
			return r.unquote(start)
		case c < ' ':
			r.pos = i
			r.syntax("in string literal")
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.pos = len(r.buf)
	r.syntax("in string literal")
	return nil
}

// unquote decodes the string whose contents start at start into r.text
// as encoding/json decodes it: escapes resolved, a surrogate pair joined,
// and invalid UTF-8 or a lone surrogate replaced by U+FFFD.
func (r *reader) unquote(start int) []byte {
	t := r.text[:0]
	b := r.buf
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			r.pos = i + 1
			r.text = t
			return t
		case c == '\\':
			var e byte // 0, past the end, is no escape
			if i+1 < len(b) {
				e = b[i+1]
			}
			switch e {
			case '"', '\\', '/':
				t = append(t, e)
			case 'b':
				t = append(t, '\b')
			case 'f':
				t = append(t, '\f')
			case 'n':
				t = append(t, '\n')
			case 'r':
				t = append(t, '\r')
			case 't':
				t = append(t, '\t')
			case 'u':
				u, n := hex4(b[i+2:])
				if n < 4 {
					r.pos = i + 2 + n
					r.syntax(`in \u escape`)
					return nil
				}
				i += 6
				if utf16.IsSurrogate(u) {
					pair := utf8.RuneError
					if bytes.HasPrefix(b[i:], []byte(`\u`)) {
						if low, n := hex4(b[i+2:]); n == 4 {
							pair = utf16.DecodeRune(u, low)
						}
					}
					if pair != utf8.RuneError {
						i += 6
					}
					u = pair
				}
				t = utf8.AppendRune(t, u)
				continue
			default:
				r.pos = i + 1
				r.syntax("in string escape")
				return nil
			}
			i += 2
		case c < ' ':
			r.pos = i
			r.syntax("in string literal")
			return nil
		case c < utf8.RuneSelf:
			t = append(t, c)
			i++
		default:
			u, n := utf8.DecodeRune(b[i:])
			t = utf8.AppendRune(t, u)
			i += n
		}
	}
	r.pos = len(b)
	r.syntax("in string literal")
	return nil
}

// hex4 returns the value of the hex digits b starts with, up to four,
// and how many there are.
func hex4(b []byte) (rune, int) {
	var u rune
	for n, c := range b[:min(4, len(b))] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return u, n
		}
		u = u<<4 | rune(c)
	}
	return u, min(4, len(b))
}

// maxDepth bounds the nesting skip follows, as encoding/json bounds a
// document's.
const maxDepth = 10000

// skip reads one value of any kind, checking its grammar, and returns its
// text.
func (r *reader) skip(depth int) []byte {
	r.space()
	start := r.pos
	switch {
	case depth > maxDepth:
		r.syntax("past the nesting limit")
	case r.consume('{'):
		for more := !r.consume('}'); more; more = r.more('}', "after object member") {
			if !r.consume('"') {
				r.syntax("looking for an object member name")
				break
			}
			r.strBody()
			if !r.consume(':') {
				r.syntax("after object member name")
			}
			r.skip(depth + 1)
		}
	case r.consume('['):
		for more := !r.consume(']'); more; more = r.more(']', "after array element") {
			r.skip(depth + 1)
		}
	case r.consume('"'):
		r.strBody()
	case r.null(), r.literal("true"), r.literal("false"):
	default:
		r.number()
	}
	return r.buf[start:r.pos]
}

// number reads a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (r *reader) number() []byte {
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
	case i == start:
		r.mismatch("a number")
		return nil
	default:
		r.pos = i
		r.syntax("in numeric literal")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			r.pos = j
			r.syntax("after decimal point in numeric literal")
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			r.pos = j
			r.syntax("in exponent of numeric literal")
			return nil
		}
		i = j
	}
	r.pos = i
	return b[start:i]
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
	text := r.number()
	if !r.ok() {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		r.fail(fmt.Sprintf("number %s is out of range", text))
	}
	return f
}

// parseInt reads an integer field of bitSize bits (0 for int) as
// encoding/json does: ParseInt, which refuses a fraction or an exponent,
// and a value out of range.
func (r *reader) parseInt(bitSize int) int64 {
	text := r.number()
	if !r.ok() {
		return 0
	}
	n, err := strconv.ParseInt(string(text), 10, bitSize)
	if err != nil {
		what := "is not an integer"
		if errors.Is(err, strconv.ErrRange) {
			what = "is out of range"
		}
		r.fail(fmt.Sprintf("number %s %s", text, what))
	}
	return n
}

func (r *reader) integer() int { return int(r.parseInt(0)) }

func (r *reader) boolean() bool {
	switch {
	case r.literal("true"):
		return true
	case r.literal("false"):
		return false
	}
	r.mismatch("a boolean")
	return false
}
