package serve

import (
	"bytes"
	"net/http"
	"testing"
)

// FuzzPredictRoute drives POST /v1/predict with arbitrary bodies: the
// route must never panic, must store nothing for a response other than
// 200, and must answer the replay of a body that got 200 from the cache
// with the same bytes. One server serves the whole run, so a body the
// fuzzer repeats may already be cached when it is first sent here.
func FuzzPredictRoute(f *testing.F) {
	s := newTestServer(f, Config{})
	example := s.example
	f.Add(example)
	f.Add(bytes.TrimSpace(example))
	f.Add(append(bytes.Clone(example), "garbage"...))
	f.Add(example[:len(example)/2])
	f.Add(bytes.Replace(example, []byte(`"placement":[`), []byte(`"placement":[-1,`), 1))
	f.Add(bytes.Replace(example, []byte(`"query"`), []byte(`"queryy"`), 1))
	f.Add([]byte(`{"query":null,"cluster":null,"placement":null}`))
	f.Add([]byte(`{"query":{},"cluster":{},"placement":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Add([]byte("\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, body []byte) {
		entries := s.cache.len()
		first := postRaw(s, "/v1/predict", body)
		replay := postRaw(s, "/v1/predict", body)
		if replay.Code != first.Code {
			t.Fatalf("status %d, then %d for the same body", first.Code, replay.Code)
		}
		if first.Code != http.StatusOK {
			if got := s.cache.len(); got != entries {
				t.Fatalf("status %d left %d cache entries, %d before", first.Code, got, entries)
			}
			if h := replay.Header().Get("X-Costream-Cache"); h != "" {
				t.Fatalf("status %d carries cache header %q", replay.Code, h)
			}
			return
		}
		if h := replay.Header().Get("X-Costream-Cache"); h != "hit" {
			t.Fatalf("replay of a body answered 200 was a cache %q", h)
		}
		if !bytes.Equal(first.Body.Bytes(), replay.Body.Bytes()) {
			t.Fatalf("replay differs:\nfirst:  %s\nreplay: %s", first.Body, replay.Body)
		}
	})
}
