package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/scenario"
	"costream/internal/sim"
	"costream/internal/stream"
)

// stdDecode is the oracle of the request readers: encoding/json decodes
// the single JSON document body holds into v, refusing unknown fields
// and anything but whitespace after it.
func stdDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON document")
	}
	return nil
}

// requestKind is one POST body type: its reader, which returns a
// pointer to what it read; the same reader, returning only its error, as
// a route calls it; and a fresh value for encoding/json.
type requestKind struct {
	name string
	read func([]byte) (any, error)
	run  func([]byte) error
	zero func() any
}

func kindOf[T any](name string, read func([]byte) (T, error)) requestKind {
	return requestKind{
		name: name,
		read: func(body []byte) (any, error) {
			v, err := read(body)
			return &v, err
		},
		run: func(body []byte) error {
			_, err := read(body)
			return err
		},
		zero: func() any { return new(T) },
	}
}

// requestKinds lists every request reader, in the order requestBodies
// writes the bodies.
var requestKinds = []requestKind{
	kindOf("predict", readPredict),
	kindOf("predict-batch", readPredictBatch),
	kindOf("optimize", readOptimize),
	kindOf("deploy", readDeploy),
	kindOf("host", readHost),
}

// kindBody is a body and the index of its kind in requestKinds.
type kindBody struct {
	kind int
	body []byte
}

// requestBodies returns json.Marshal of one request of every kind over
// q, c and p, in requestKinds order, with every member set.
func requestBodies(t testing.TB, q *stream.Query, c *hardware.Cluster, p sim.Placement) []kindBody {
	t.Helper()
	other := slices.Clone(p)
	other[0] = (other[0] + 1) % len(c.Hosts)
	seed := int64(7)
	var out []kindBody
	for i, req := range []any{
		PredictRequest{Query: q, Cluster: c, Placement: p},
		PredictBatchRequest{Query: q, Cluster: c, Placements: []sim.Placement{p, other}},
		OptimizeRequest{Query: q, Cluster: c, Candidates: 16, Rounds: 2, Objective: "max-throughput",
			Strategy: "beam", BeamWidth: 3, Seed: &seed, Debug: true},
		DeployRequest{ID: "q-1", Query: q, Cluster: c, Placement: p},
		HostRequest{Host: c.Hosts[len(c.Hosts)-1].ID},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, kindBody{i, body})
	}
	return out
}

// exampleRequest decodes the /v1/example body.
func exampleRequest(t testing.TB, ex []byte) PredictRequest {
	t.Helper()
	var req PredictRequest
	if err := json.Unmarshal(ex, &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// canonicalBodies returns what clients send: the /v1/example body, and
// requestBodies over it and over four traces of every corpus recipe in
// the scenario registry.
func canonicalBodies(t testing.TB, ex []byte) []kindBody {
	t.Helper()
	req := exampleRequest(t, ex)
	out := append([]kindBody{{0, ex}}, requestBodies(t, req.Query, req.Cluster, req.Placement)...)
	for _, sc := range scenario.All() {
		corpus, err := dataset.Build(sc.Make(4, 1))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, tr := range corpus.Traces {
			out = append(out, requestBodies(t, tr.Query, tr.Cluster, tr.Placement)...)
		}
	}
	return out
}

// replaceFirst replaces the first match of expr in body with repl, which
// may refer to submatches as $1.
func replaceFirst(t testing.TB, body []byte, expr, repl string) []byte {
	t.Helper()
	re := regexp.MustCompile(expr)
	m := re.FindSubmatchIndex(body)
	if m == nil {
		t.Fatalf("no %q in %s", expr, body)
	}
	out := append([]byte(nil), body[:m[0]]...)
	out = re.Expand(out, []byte(repl), body, m)
	return append(out, body[m[1]:]...)
}

// listedRefusal walks the next value of dec, which encoding/json
// decodes as a t without error, and reports whether it holds one of the
// refusals the readers add to encoding/json's: a null where t has neither
// a pointer nor a slice, a member repeated in one object, or a member
// name that matches a field only by case folding.
func listedRefusal(dec *json.Decoder, t reflect.Type) bool {
	tok, err := dec.Token()
	if err != nil {
		panic(err)
	}
	if tok == nil {
		return t.Kind() != reflect.Pointer && t.Kind() != reflect.Slice
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch tok {
	case json.Delim('{'):
		fields := map[string]reflect.Type{}
		for i := range t.NumField() {
			f := t.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			fields[name] = f.Type
		}
		seen := map[string]bool{}
		for dec.More() {
			key, _ := dec.Token()
			ft, ok := fields[key.(string)]
			if !ok || seen[key.(string)] || listedRefusal(dec, ft) {
				return true
			}
			seen[key.(string)] = true
		}
		dec.Token()
	case json.Delim('['):
		for dec.More() {
			if listedRefusal(dec, t.Elem()) {
				return true
			}
		}
		dec.Token()
	}
	return false
}

// FuzzDecodePredict holds the request readers to encoding/json. A
// reader accepts exactly the bodies encoding/json accepts, less those
// holding a refusal its doc comment lists (listedRefusal): a null scalar,
// a repeated member or a member name matched by case folding. What it
// accepts decodes to a value reflect.DeepEqual to encoding/json's. kind
// picks the reader.
func FuzzDecodePredict(f *testing.F) {
	ex := newTestServer(f, Config{}).example
	for _, kb := range canonicalBodies(f, ex) {
		f.Add(uint8(kb.kind), kb.body)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, ex, " ", "\t"); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), indented.Bytes())
	const (
		firstCPU    = `"CPU":[^,}]+`
		firstPlaced = `"placement":\[\d+`
	)
	for _, m := range [][2]string{
		{`"Ops"`, `"ops"`},                             // key case
		{`"query"`, `"Query"`},                         // key case
		{`\{"query"`, `{"placement":[0],"query"`},      // duplicate key
		{firstCPU, `"CPU":1,$0`},                       // duplicate key
		{`"placement"`, `"query":{"Edges":[]},$0`},     // duplicate key: encoding/json merges the objects
		{`"ID":"`, `"ID":"\u0041`},                     // escape
		{`"query"`, `"quer\u0079"`},                    // escape in a name
		{`"ID":"`, `"ID":"\/\u003c\u00e9\ud83d\ude00`}, // escapes, a surrogate pair
		{`"ID":"`, `"ID":"\ud83d`},                     // lone high surrogate
		{`"ID":"`, `"ID":"\ude00\ud83dx`},              // lone low, then lone high surrogate
		{`"ID":"`, `"ID":"\ud83d\u0041`},               // high surrogate, then no low one
		{`"ID":"`, `"ID":"\b\f\n\r\t\"\\`},             // every short escape
		{`"ID":"`, `"ID":"\x`},                         // invalid escape
		{`"ID":"`, `"ID":"\u12`},                       // short \u escape
		{`"ID":"`, `"ID":"héllo-`},                     // non-ASCII ID
		{`"ID":"`, "\"ID\":\"\xff"},                    // invalid UTF-8
		{`"ID":"`, "\"ID\":\"\xed\xa0\x80"},            // a UTF-8 surrogate
		{`"ID":"`, "\"ID\":\"\t"},                      // control byte
		{`"Selectivity":[^,}]+`, `"Selectivity":null`}, // null in a scalar field
		{`"HasGroupBy":\w+`, `"HasGroupBy":null`},
		{`"Type":\d+`, `"Type":null`},
		{`"ID":"[^"]*"`, `"ID":null`},
		{`"FieldTypes":\[\d+`, `"FieldTypes":[null`},
		{`"Window":null`, `"Window":{}`},
		{`"FieldTypes":\[[^\]]*\]`, `"FieldTypes":[]`},
		{`"Edges":\[`, `"Edges":[null,`},
		{firstCPU, `"CPU":+1`},
		{firstCPU, `"CPU":01`},
		{firstCPU, `"CPU":1.`},
		{firstCPU, `"CPU":.5`},
		{firstCPU, `"CPU":-`},
		{firstCPU, `"CPU":1e`},
		{firstCPU, `"CPU":1e400`},
		{firstCPU, `"CPU":1e-400`},
		{firstCPU, `"CPU":-0`},
		{firstCPU, `"CPU":1E+2`},
		{firstCPU, `"CPU":"1"`},
		{firstPlaced, `"placement":[-0`},
		{firstPlaced, `"placement":[+1`},
		{firstPlaced, `"placement":[01`},
		{firstPlaced, `"placement":[1.0`},
		{firstPlaced, `"placement":[1e0`},
		{firstPlaced, `"placement":[null`},
		{firstPlaced, `"placement":[9223372036854775807`},
		{firstPlaced, `"placement":[9223372036854775808`}, // int overflow
		{firstPlaced, `"placement":[-9223372036854775809`},
		{`"Edges":\[\[(\d+),\d+\]`, `"Edges":[[$1]`},   // one-element edge
		{`"Edges":\[\[(\d+,\d+)\]`, `"Edges":[[$1,2]`}, // three-element edge
		{`"Edges":\[\[(\d+,\d+)\]`, `"Edges":[[$1,"x"]`},
		{`"Edges":\[\[(\d+),(\d+)\]`, `"Edges":[[ $1 , $2 ]`}, // whitespace inside an edge
		{`"Edges":\[\[(\d+,\d+)\]`, `"Edges":[[$1,[[[]]]]`},
		{`"placement":\[[^\]]*\]`, `"placement":null`},
		{`"placement":\[[^\]]*\]`, `"placement":[]`},
		{`"Hosts":\[`, `"Hosts":[null,`},
	} {
		f.Add(uint8(0), replaceFirst(f, ex, m[0], m[1]))
	}
	trimmed := bytes.TrimSpace(ex)
	for _, tail := range []string{"x", "{}", " \r\n\t", "\x00"} {
		f.Add(uint8(0), append(bytes.Clone(trimmed), tail...))
	}
	for _, body := range []string{`{}`, `null`, ``, `{"query":null,"cluster":null,"placement":null}`,
		`{"query":{},"cluster":{},"placement":[]}`, `{"query":{"Ops":[null]}}`, `[]`, `{"query":1}`} {
		f.Add(uint8(0), []byte(body))
	}
	// Every other kind: its members reordered, a null in each scalar, and
	// escapes in its strings.
	req := exampleRequest(f, ex)
	q, _ := json.Marshal(req.Query)
	c, _ := json.Marshal(req.Cluster)
	for _, kb := range []kindBody{
		{1, []byte(`{"placements":[[0],null,[]],"cluster":` + string(c) + `,"query":` + string(q) + `}`)},
		{1, []byte(`{"placements":[[null]]}`)},
		{2, []byte(`{"debug":true,"seed":-3,"beam_width":2,"strategy":"beam","objective":"min-e2e-latency","rounds":1,"candidates":8,"cluster":` + string(c) + `,"query":` + string(q) + `}`)},
		{2, []byte(`{"seed":null,"candidates":4}`)},
		{2, []byte(`{"seed":9223372036854775808}`)},
		{2, []byte(`{"candidates":null}`)},
		{2, []byte(`{"debug":null}`)},
		{2, []byte(`{"rounds":null}`)},
		{2, []byte(`{"beam_width":null}`)},
		{2, []byte(`{"objective":null}`)},
		{2, []byte(`{"strategy":"\u0062eam","objective":"max\u002dthroughput"}`)},
		{2, []byte(`{"Seed":1}`)},
		{3, []byte(`{"placement":[0,1],"cluster":null,"query":null,"id":"q\/1"}`)},
		{3, []byte(`{"id":null}`)},
		{3, []byte(`{"id":"a","id":"b"}`)},
		{4, []byte(`{"host":"edge\u002fa\/host-001"}`)},
		{4, []byte(`{"host":"\ud83d\ude00\u003c\u003e\u0026"}`)},
		{4, []byte(`{"host":null}`)},
		{4, []byte(`{"host":"a","host":"b"}`)},
		{4, []byte(`{"HOST":"a"}`)},
		{4, []byte(`{"host":["a"]}`)},
		{4, []byte(`{"host":"a"`)},
		{4, []byte(`null`)},
		// Not json.Marshal's encoding, each read as encoding/json reads it:
		// escapes, whitespace, members out of order, null for a pointer or
		// a slice.
		{4, []byte(`{"host":"edge-a\/host-001"}`)},
		{4, []byte(`{"host":"\u003chost\u003e \u0026 \ud83d\ude00 \ud83d \ude00x \ud83d\u0041"}`)},
		{4, []byte("{\"host\":\"\xff\xed\xa0\x80 h\xc3\xa9\"}")},
		{4, []byte(`{"h\u006fst":"a\b\f\n\r\t\"\\"}`)},
		{4, []byte(" \t\r\n{ \"host\" : \"a\" } \n")},
		{2, []byte(`{"seed":null,"debug":false,"candidates":-0,"query":null}`)},
		{2, []byte(`{"seed":-9223372036854775808}`)},
		{1, []byte(`{"placements":[null,[],[0]],"query":{"Ops":null,"Edges":[]}}`)},
		{0, []byte(`{"query":{"Ops":[{"Window":null,"FieldTypes":null,"EventRate":1E+2}],"Edges":[[ 0 , 1 ]]}}`)},
		{0, []byte(`{"cluster":{"Hosts":[null,{"CPU":1e-400,"ID":""}]},"placement":null}`)},
		{3, []byte(`{"placement":[],"id":""}`)},
	} {
		f.Add(uint8(kb.kind), kb.body)
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		k := requestKinds[int(kind)%len(requestKinds)]
		want := k.zero()
		stdErr := stdDecode(body, want)
		got, err := k.read(body)
		switch {
		case stdErr != nil:
			if err == nil {
				t.Fatalf("%s: the reader accepted a body encoding/json rejects (%v): %q", k.name, stdErr, body)
			}
		case listedRefusal(json.NewDecoder(bytes.NewReader(body)), reflect.TypeOf(want).Elem()):
			if err == nil {
				t.Fatalf("%s: the reader accepted a null scalar, a repeated member or a case-folded name: %q", k.name, body)
			}
		case err != nil:
			t.Fatalf("%s: the reader refused a body encoding/json accepts, for no listed reason: %v: %q", k.name, err, body)
		case !reflect.DeepEqual(got, want):
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Fatalf("%s: the reader and encoding/json disagree on %q:\nreader:        %s\nencoding/json: %s", k.name, body, g, w)
		}
	})
}

// heapObjects counts the heap objects a decoded value holds at least:
// every non-nil pointer, non-empty slice and non-empty string.
func heapObjects(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n = 1 + heapObjects(v.Elem())
		}
	case reflect.Slice:
		if v.Len() > 0 {
			n = 1
		}
		for i := range v.Len() {
			n += heapObjects(v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			n += heapObjects(v.Field(i))
		}
	case reflect.String:
		if v.Len() > 0 {
			n = 1
		}
	}
	return n
}

// TestCanonicalBodiesTakeTheFastPath: what json.Marshal writes for every
// request type — over the /v1/example request and over traces of every
// corpus recipe, every member set — is read and equals encoding/json's
// value. A field added to a wire type without a case in its reader fails
// here. Reading the example's body of each type allocates the decoded
// value's own objects and nothing more.
func TestCanonicalBodiesTakeTheFastPath(t *testing.T) {
	ex := newTestServer(t, Config{}).example
	for i, kb := range canonicalBodies(t, ex) {
		k := requestKinds[kb.kind]
		got, err := k.read(kb.body)
		if err != nil {
			t.Fatalf("body %d (%s) refused: %v: %s", i, k.name, err, kb.body)
		}
		want := k.zero()
		if err := stdDecode(kb.body, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %d (%s): reader %+v, encoding/json %+v", i, k.name, got, want)
		}
	}
	req := exampleRequest(t, ex)
	bodies := requestBodies(t, req.Query, req.Cluster, req.Placement)
	bodies[0].body = ex
	for _, kb := range bodies {
		k := requestKinds[kb.kind]
		v, _ := k.read(kb.body)
		objects := heapObjects(reflect.ValueOf(v).Elem())
		allocs := testing.AllocsPerRun(100, func() { k.run(kb.body) })
		t.Logf("%s: %.0f allocations to read the example, which holds %d objects", k.name, allocs, objects)
		if allocs > float64(objects) {
			t.Errorf("%s: %.0f allocations to read the example, want at most its %d objects", k.name, allocs, objects)
		}
	}
}

// TestDecodedValuesOwnTheirBytes: a decoded request shares no memory with
// the body it was read from, so the pooled body buffer can be reused
// while the control plane keeps a deployment's query and cluster.
func TestDecodedValuesOwnTheirBytes(t *testing.T) {
	ex := newTestServer(t, Config{}).example
	req := exampleRequest(t, ex)
	bodies := requestBodies(t, req.Query, req.Cluster, req.Placement)
	bodies = append(bodies, kindBody{4, []byte(`{"host":"edge\/a\u002dhost"}`)})
	for _, kb := range bodies {
		k := requestKinds[kb.kind]
		buf := bytes.Clone(kb.body)
		got, err := k.read(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		want, err := k.read(kb.body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: overwriting the body changed the decoded value:\n%+v\nwant %+v", k.name, got, want)
		}
	}
}

// TestReaderRefusals: each refusal the readers add to encoding/json's,
// as their doc comment lists them, on a body encoding/json accepts; and
// the wording of a refusal: the path of the value at fault, and the byte
// offset of a syntax error.
func TestReaderRefusals(t *testing.T) {
	for _, tc := range []struct {
		kind  int
		body  string
		want  string
		extra bool // encoding/json accepts the body
	}{
		{0, `{"query":{"Ops":[{"Selectivity":null}]}}`, "query.Ops[0].Selectivity: null is not a number", true},
		{0, `{"query":{"Ops":[null,{"ID":null}]}}`, "query.Ops[1].ID: null is not a string", true},
		{0, `{"query":{"Ops":[{"HasGroupBy":null}]}}`, "query.Ops[0].HasGroupBy: null is not a boolean", true},
		{0, `{"query":{"Ops":[{"FieldTypes":[1,null]}]}}`, "query.Ops[0].FieldTypes[1]: null is not a number", true},
		{0, `{"cluster":{"Hosts":[{"CPU":null}]}}`, "cluster.Hosts[0].CPU: null is not a number", true},
		{1, `{"placements":[[0],[1,null]]}`, "placements[1][1]: null is not a number", true},
		{2, `{"candidates":null}`, "candidates: null is not a number", true},
		{2, `{"debug":null}`, "debug: null is not a boolean", true},
		{3, `{"id":null}`, "id: null is not a string", true},
		{4, `null`, "null is not an object", true},
		{4, ` null `, "null is not an object", true},
		{4, `{"host":"a","host":"b"}`, `duplicate field "host"`, true},
		{0, `{"query":{"Ops":[]},"query":{"Edges":[]}}`, `duplicate field "query"`, true},
		{4, `{"Host":"a"}`, `unknown field "Host" (the field is "host")`, true},
		{0, `{"cluster":{"hosts":[]}}`, `cluster: unknown field "hosts" (the field is "Hosts")`, true},
		{4, `{"host":"a","port":1}`, `unknown field "port"`, false},
		{4, `{"host":1}`, "host: a number is not a string", false},
		{2, `{"seed":"1"}`, "seed: a string is not a number", false},
		{2, `{"rounds":1.5}`, "rounds: number 1.5 is not an integer", false},
		{2, `{"seed":9223372036854775808}`, "seed: number 9223372036854775808 is out of range", false},
		{0, `{"cluster":{"Hosts":[{"CPU":1e400}]}}`, "cluster.Hosts[0].CPU: number 1e400 is out of range", false},
		{0, `{"query":{"Edges":[[0,1],[2]]}}`, "query.Edges[1]: edge [2] is not [from, to]: want two integer operator indices", false},
		{4, `{"host":"a"} x`, "invalid character 'x' after the JSON document at byte offset 13", false},
		{4, `{"host":"a",}`, "invalid character '}' looking for an object member name at byte offset 12", false},
		{4, `{"host" "a"}`, "invalid character '\"' after object member name at byte offset 8", false},
		{0, `{"placement":[1 2]}`, "placement: invalid character '2' after array element at byte offset 16", false},
		{0, `{"placement":[-]}`, "placement[0]: invalid character ']' in numeric literal at byte offset 15", false},
		{4, `{"host":"a\qb"}`, "host: invalid character 'q' in string escape at byte offset 11", false},
		{4, "{\"host\":\"a\nb\"}", "host: invalid character '\\n' in string literal at byte offset 10", false},
		{4, `{"host":"a`, "host: unexpected end of input in string literal at byte offset 10", false},
		{4, `{"host":"a\`, "host: unexpected end of input in string escape at byte offset 11", false},
		{4, `{"host":"\u00g0"}`, "host: invalid character 'g' in \\u escape at byte offset 13", false},
		{4, ``, "unexpected end of input looking for a value at byte offset 0", false},
	} {
		k := requestKinds[tc.kind]
		_, err := k.read([]byte(tc.body))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s %s: error %v, want %q", k.name, tc.body, err, tc.want)
		}
		if stdErr := stdDecode([]byte(tc.body), k.zero()); (stdErr == nil) != tc.extra {
			t.Errorf("%s %s: encoding/json says %v", k.name, tc.body, stdErr)
		}
	}
}

// TestEdgeMustBeTwoIndices: an edge that is not exactly two integer
// operator indices is a 400 naming the edge on every route that takes a
// query; encoding/json alone would fill [from, to] from a short array
// and drop extra elements unread.
func TestEdgeMustBeTwoIndices(t *testing.T) {
	s := newControlTestServer(t, nil)
	q, c := testQuery(t), testCluster()
	p := sim.Placement{0, 1, 2}
	for path, body := range map[string]any{
		"/v1/predict":       PredictRequest{Query: q, Cluster: c, Placement: p},
		"/v1/predict-batch": PredictBatchRequest{Query: q, Cluster: c, Placements: []sim.Placement{p}},
		"/v1/optimize":      OptimizeRequest{Query: q, Cluster: c, Candidates: 4},
		"/v1/deployments":   DeployRequest{Query: q, Cluster: c, Placement: p},
	} {
		doc, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(doc, []byte(`"Edges":[[0,1],`)) {
			t.Fatalf("%s: no first edge [0,1] in %s", path, doc)
		}
		for _, edge := range []string{`[0,1,99]`, `[0,1,"x"]`, `[0]`, `[]`, `null`, `[0,null]`, `[0,1.0]`, `{}`} {
			bad := bytes.Replace(doc, []byte(`"Edges":[[0,1],`), []byte(`"Edges":[`+edge+`,`), 1)
			w := postRaw(s, path, bad)
			var resp errorResponse
			json.Unmarshal(w.Body.Bytes(), &resp)
			if want := fmt.Sprintf("edge %s is not [from, to]", edge); w.Code != http.StatusBadRequest || !strings.Contains(resp.Error, want) {
				t.Errorf("%s with edge %s: status %d, want 400 naming %q: %s", path, edge, w.Code, want, w.Body)
			}
		}
	}
}

// benchDecode decodes the body of one request kind built over the
// /v1/example request with its reader, and with encoding/json.
func benchDecode(b *testing.B, kind int) {
	ex := newTestServer(b, Config{}).example
	req := exampleRequest(b, ex)
	body := requestBodies(b, req.Query, req.Cluster, req.Placement)[kind].body
	k := requestKinds[kind]
	b.Run("one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := k.run(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := stdDecode(body, k.zero()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodePredict(b *testing.B)      { benchDecode(b, 0) }
func BenchmarkDecodePredictBatch(b *testing.B) { benchDecode(b, 1) }
func BenchmarkDecodeOptimize(b *testing.B)     { benchDecode(b, 2) }
func BenchmarkDecodeDeploy(b *testing.B)       { benchDecode(b, 3) }
func BenchmarkDecodeHost(b *testing.B)         { benchDecode(b, 4) }
