package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"costream/internal/dataset"
	"costream/internal/scenario"
	"costream/internal/sim"
)

// recipeBodies returns json.Marshal of a predict request for four traces
// of every corpus recipe in the scenario registry.
func recipeBodies(t testing.TB) [][]byte {
	t.Helper()
	var bodies [][]byte
	for _, sc := range scenario.All() {
		corpus, err := dataset.Build(sc.Make(4, 1))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, tr := range corpus.Traces {
			body, err := json.Marshal(PredictRequest{Query: tr.Query, Cluster: tr.Cluster, Placement: tr.Placement})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
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

// FuzzDecodePredict checks the one-pass reader against decodeRequest:
// on every body readPredict either declines or returns a value
// reflect.DeepEqual to decodeRequest's, and it never accepts a body
// decodeRequest rejects.
func FuzzDecodePredict(f *testing.F) {
	ex := newTestServer(f, Config{}).example
	f.Add(ex)
	for _, body := range recipeBodies(f) {
		f.Add(body)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, ex, " ", "\t"); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
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
		{`"query"`, `"quer\u0079"`},                    // escape
		{`"ID":"`, `"ID":"héllo-`},                     // non-ASCII ID
		{`"ID":"`, "\"ID\":\"\xff"},                    // invalid UTF-8
		{`"ID":"`, "\"ID\":\"\t"},                      // control byte
		{`"Selectivity":[^,}]+`, `"Selectivity":null`}, // null in a scalar field
		{`"HasGroupBy":\w+`, `"HasGroupBy":null`},
		{`"Type":\d+`, `"Type":null`},
		{`"Window":null`, `"Window":{}`},
		{`"FieldTypes":\[[^\]]*\]`, `"FieldTypes":[]`},
		{`"Edges":\[`, `"Edges":[null,`},
		{firstCPU, `"CPU":+1`},
		{firstCPU, `"CPU":01`},
		{firstCPU, `"CPU":1.`},
		{firstCPU, `"CPU":.5`},
		{firstCPU, `"CPU":1e400`},
		{firstCPU, `"CPU":1e-400`},
		{firstCPU, `"CPU":-0`},
		{firstCPU, `"CPU":1E+2`},
		{firstPlaced, `"placement":[-0`},
		{firstPlaced, `"placement":[+1`},
		{firstPlaced, `"placement":[01`},
		{firstPlaced, `"placement":[1.0`},
		{firstPlaced, `"placement":[1e0`},
		{firstPlaced, `"placement":[9223372036854775807`},
		{firstPlaced, `"placement":[9223372036854775808`}, // int overflow
		{firstPlaced, `"placement":[-9223372036854775809`},
		{`"Edges":\[\[(\d+),\d+\]`, `"Edges":[[$1]`},   // one-element edge
		{`"Edges":\[\[(\d+,\d+)\]`, `"Edges":[[$1,2]`}, // three-element edge
		{`"Edges":\[\[(\d+,\d+)\]`, `"Edges":[[$1,"x"]`},
		{`"Edges":\[\[(\d+),(\d+)\]`, `"Edges":[[ $1 , $2 ]`}, // whitespace inside an edge
		{`"placement":\[[^\]]*\]`, `"placement":null`},
		{`"placement":\[[^\]]*\]`, `"placement":[]`},
		{`"Hosts":\[`, `"Hosts":[null,`},
	} {
		f.Add(replaceFirst(f, ex, m[0], m[1]))
	}
	trimmed := bytes.TrimSpace(ex)
	for _, tail := range []string{"x", "{}", " \r\n\t", "\x00"} {
		f.Add(append(bytes.Clone(trimmed), tail...))
	}
	for _, body := range []string{`{}`, `null`, ``, `{"query":null,"cluster":null,"placement":null}`,
		`{"query":{},"cluster":{},"placement":[]}`, `{"query":{"Ops":[null]}}`, `[]`, `{"query":1}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := readPredict(body)
		if !ok {
			return
		}
		var want PredictRequest
		if err := decodeRequest(bytes.NewReader(body), &want); err != nil {
			t.Fatalf("readPredict accepted a body decodeRequest rejects (%v): %q", err, body)
		}
		if !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Fatalf("readPredict and decodeRequest disagree on %q:\nreadPredict:   %s\ndecodeRequest: %s", body, g, w)
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

// TestCanonicalBodiesTakeTheFastPath: what json.Marshal writes for the
// wire types — the /v1/example body and a body from every corpus recipe —
// is read by readPredict, not declined to encoding/json, and equals
// decodeRequest's value. A field added to a wire type without a case in
// the reader fails here instead of sending every request down the slow
// path unnoticed. Reading the example allocates the decoded value's own
// objects and nothing more.
func TestCanonicalBodiesTakeTheFastPath(t *testing.T) {
	ex := newTestServer(t, Config{}).example
	for i, body := range append([][]byte{ex}, recipeBodies(t)...) {
		got, ok := readPredict(body)
		if !ok {
			t.Fatalf("body %d declined: %s", i, body)
		}
		var want PredictRequest
		if err := decodeRequest(bytes.NewReader(body), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %d: readPredict %+v, decodeRequest %+v", i, got, want)
		}
	}
	req, _ := readPredict(ex)
	objects := heapObjects(reflect.ValueOf(req))
	allocs := testing.AllocsPerRun(100, func() { readPredict(ex) })
	t.Logf("%.0f allocations to read the example, which holds %d objects", allocs, objects)
	if allocs > float64(objects) {
		t.Errorf("%.0f allocations to read the example, want at most its %d objects", allocs, objects)
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

// BenchmarkDecodePredict decodes the /v1/example body with the one-pass
// reader and with encoding/json, the path every other body takes.
func BenchmarkDecodePredict(b *testing.B) {
	ex := newTestServer(b, Config{}).example
	b.Run("one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, ok := readPredict(ex); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var req PredictRequest
			if err := decodeRequest(bytes.NewReader(ex), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
