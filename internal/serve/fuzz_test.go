package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"costream/internal/controlplane"
	"costream/internal/placement"
	"costream/internal/sim"
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
	f.Add(nullHost(example))
	f.Add(nullOp(example))
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

// FuzzPredictBatchRoute drives POST /v1/predict-batch with arbitrary
// bodies: the route must never panic, a 200 must carry exactly one cost
// vector per requested placement, and each vector must be, byte for
// byte, /v1/predict's answer for that placement, since the two routes
// share one scoring path.
func FuzzPredictBatchRoute(f *testing.F) {
	s := newTestServer(f, Config{})
	var ex PredictRequest
	if err := json.Unmarshal(s.example, &ex); err != nil {
		f.Fatal(err)
	}
	other := append(sim.Placement(nil), ex.Placement...)
	other[0] = (other[0] + 1) % len(ex.Cluster.Hosts)
	batch, err := json.Marshal(PredictBatchRequest{Query: ex.Query, Cluster: ex.Cluster, Placements: []sim.Placement{ex.Placement, other, ex.Placement}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Add(append(bytes.Clone(batch), "garbage"...))
	f.Add(batch[:len(batch)/2])
	f.Add(bytes.Replace(batch, []byte(`"placements":[[`), []byte(`"placements":[[-1,`), 1))
	f.Add(bytes.Replace(batch, []byte(`"placements":[`), []byte(`"placements":[[],`), 1))
	f.Add(bytes.Replace(batch, []byte(`"placements"`), []byte(`"placement"`), 1))
	f.Add([]byte(`{"query":null,"cluster":null,"placements":null}`))
	f.Add([]byte(`{"query":{},"cluster":{},"placements":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Add([]byte("\x00\xff\xfe"))
	f.Add(nullHost(batch))
	f.Add(nullOp(batch))
	f.Fuzz(func(t *testing.T, body []byte) {
		w := postRaw(s, "/v1/predict-batch", body)
		if w.Code != http.StatusOK {
			return
		}
		var req PredictBatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp struct{ Costs []json.RawMessage }
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Costs) != len(req.Placements) {
			t.Fatalf("%d cost vectors for %d placements", len(resp.Costs), len(req.Placements))
		}
		for i, p := range req.Placements {
			one, err := json.Marshal(PredictRequest{Query: req.Query, Cluster: req.Cluster, Placement: p})
			if err != nil {
				t.Fatal(err)
			}
			pw := postRaw(s, "/v1/predict", one)
			if pw.Code != http.StatusOK {
				t.Fatalf("placement %d: batch answered 200, predict %d: %s", i, pw.Code, pw.Body)
			}
			var single struct{ Costs json.RawMessage }
			if err := json.Unmarshal(pw.Body.Bytes(), &single); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.Costs[i], single.Costs) {
				t.Fatalf("placement %d: batch %s, predict %s", i, resp.Costs[i], single.Costs)
			}
		}
	})
}

// FuzzOptimizeRoute drives POST /v1/optimize with arbitrary bodies: the
// route must never panic and answers only 200, 400, 422 or 503. A 200
// carries a placement valid on the request's query and cluster, and its
// costs are, byte for byte, /v1/predict's answer for that placement.
func FuzzOptimizeRoute(f *testing.F) {
	s := newTestServer(f, Config{})
	var ex PredictRequest
	if err := json.Unmarshal(s.example, &ex); err != nil {
		f.Fatal(err)
	}
	opt, err := json.Marshal(OptimizeRequest{Query: ex.Query, Cluster: ex.Cluster})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(opt)
	f.Add(append(bytes.Clone(opt), "garbage"...))
	f.Add(opt[:len(opt)/2])
	for _, extra := range []string{
		`"candidates":16,"strategy":"exhaustive",`,
		`"candidates":16,"strategy":"beam","beam_width":3,`,
		`"candidates":16,"strategy":"local-search","rounds":2,`,
		`"objective":"max-throughput","seed":0,`,
		`"objective":"min-e2e-latency","debug":true,`,
		`"beam_width":2,`,
		`"candidates":-1,`,
		`"rounds":-1,`,
		`"candidates":100000,`,
		`"strategy":"warp",`,
	} {
		f.Add(bytes.Replace(opt, []byte(`{`), []byte(`{`+extra), 1))
	}
	f.Add([]byte(`{"query":null,"cluster":null}`))
	f.Add([]byte(`{"query":{},"cluster":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Add([]byte("\x00\xff\xfe"))
	f.Add(nullHost(opt))
	f.Add(nullOp(opt))
	f.Fuzz(func(t *testing.T, body []byte) {
		w := postRaw(s, "/v1/optimize", body)
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var req OptimizeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp struct {
			Placement sim.Placement
			Costs     json.RawMessage
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !placement.Valid(analyzed(req.Query), checked(req.Cluster), resp.Placement) {
			t.Fatalf("200 carries invalid placement %v", resp.Placement)
		}
		one, err := json.Marshal(PredictRequest{Query: req.Query, Cluster: req.Cluster, Placement: resp.Placement})
		if err != nil {
			t.Fatal(err)
		}
		pw := postRaw(s, "/v1/predict", one)
		if pw.Code != http.StatusOK {
			t.Fatalf("optimize answered 200, predict of its placement %d: %s", pw.Code, pw.Body)
		}
		var single struct{ Costs json.RawMessage }
		if err := json.Unmarshal(pw.Body.Bytes(), &single); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Costs, single.Costs) {
			t.Fatalf("optimize costs %s, predict %s", resp.Costs, single.Costs)
		}
	})
}

// FuzzDeploymentsRoute drives the control plane over HTTP: an arbitrary
// POST /v1/deployments body, a cordon of an arbitrary host, then POST
// /v1/control/tick. No route may panic or answer a status its handler
// does not document. After a 200 deploy the new deployment's placement
// passes Placement.Validate on its query and cluster; after a 200 tick it
// still does, unless the tick undeployed it, and it uses no cordoned host.
// Every input starts from an empty plane with nothing cordoned.
func FuzzDeploymentsRoute(f *testing.F) {
	s := newControlTestServer(f, nil)
	var ex PredictRequest
	if err := json.Unmarshal(s.example, &ex); err != nil {
		f.Fatal(err)
	}
	search, err := json.Marshal(DeployRequest{ID: "q1", Query: ex.Query, Cluster: ex.Cluster})
	if err != nil {
		f.Fatal(err)
	}
	adopt, err := json.Marshal(DeployRequest{ID: "q2", Query: ex.Query, Cluster: ex.Cluster, Placement: ex.Placement})
	if err != nil {
		f.Fatal(err)
	}
	used := ex.Cluster.Hosts[ex.Placement[len(ex.Placement)-1]].ID
	f.Add(search, used)
	f.Add(adopt, used)
	f.Add(adopt, ex.Cluster.Hosts[0].ID)
	f.Add(search, "")
	f.Add(search, "no-such-host")
	f.Add(append(bytes.Clone(adopt), "garbage"...), used)
	f.Add(search[:len(search)/2], used)
	f.Add(bytes.Replace(adopt, []byte(`"placement":[`), []byte(`"placement":[-1,`), 1), used)
	f.Add(bytes.Replace(adopt, []byte(`"placement":[`), []byte(`"placement":[0,`), 1), used)
	f.Add(bytes.Replace(search, []byte(`"id":"q1"`), []byte(`"id":"a/b"`), 1), used)
	f.Add(bytes.Replace(search, []byte(`"id":"q1",`), nil, 1), used)
	f.Add([]byte(`{"query":null,"cluster":null}`), used)
	f.Add([]byte(`{}`), used)
	f.Add([]byte(`null`), "")
	f.Add([]byte{}, "x")
	f.Add(nullHost(adopt), used)
	f.Add(nullOp(search), used)
	f.Fuzz(func(t *testing.T, body []byte, host string) {
		defer func() {
			for _, st := range s.plane.List() {
				s.plane.Evict(st.ID)
			}
			s.plane.Uncordon(host)
		}()
		w := postRaw(s, "/v1/deployments", body)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("deploy: status %d: %s", w.Code, w.Body)
		}
		var req DeployRequest
		var id string
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("deploy answered 200 for a body that does not decode: %v", err)
			}
			st := decodeStatus(t, w.Body.Bytes())
			if err := st.Placement.Validate(req.Query, req.Cluster); !st.Deployed || err != nil {
				t.Fatalf("deploy answered 200 with deployed=%v, placement %v: %v", st.Deployed, st.Placement, err)
			}
			id = st.ID
		}
		cordon, err := json.Marshal(HostRequest{Host: host})
		if err != nil {
			t.Fatal(err)
		}
		cw := postRaw(s, "/v1/hosts/cordon", cordon)
		switch cw.Code {
		case http.StatusOK, http.StatusBadRequest:
		default:
			t.Fatalf("cordon %q: status %d: %s", host, cw.Code, cw.Body)
		}
		tw := postRaw(s, "/v1/control/tick", nil)
		switch tw.Code {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("tick: status %d: %s", tw.Code, tw.Body)
		}
		if id == "" {
			return
		}
		st, ok := s.plane.Get(id)
		if !ok {
			t.Fatalf("deployment %s vanished in a tick", id)
		}
		if !st.Deployed {
			return
		}
		if err := st.Placement.Validate(req.Query, req.Cluster); err != nil {
			t.Fatalf("after the tick %s holds placement %v: %v", id, st.Placement, err)
		}
		for _, h := range st.Placement {
			if cw.Code == http.StatusOK && req.Cluster.Hosts[h].ID == host {
				t.Fatalf("after the tick %s still uses cordoned host %q: %v", id, host, st.Placement)
			}
		}
	})
}

// FuzzHostRoutes sends one arbitrary body to two host routes in turn
// (cordon, uncordon or drain, picked by ops) against a plane holding one
// deployment of the example request. No route may panic or answer a
// status its handler does not document. After a 200 cordon or drain the
// host the body names is cordoned, after a 200 uncordon it is not, and
// after a 200 drain no deployed placement uses it. Every input starts
// from the same deployment with nothing cordoned.
func FuzzHostRoutes(f *testing.F) {
	s := newControlTestServer(f, nil)
	var ex PredictRequest
	if err := json.Unmarshal(s.example, &ex); err != nil {
		f.Fatal(err)
	}
	deploy, err := json.Marshal(DeployRequest{ID: "q", Query: ex.Query, Cluster: ex.Cluster, Placement: ex.Placement})
	if err != nil {
		f.Fatal(err)
	}
	routes := []struct {
		path     string
		statuses []int
	}{
		{"/v1/hosts/cordon", []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge}},
		{"/v1/hosts/uncordon", []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge}},
		{"/v1/hosts/drain", []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusInternalServerError, http.StatusServiceUnavailable}},
	}
	used := ex.Cluster.Hosts[ex.Placement[len(ex.Placement)-1]].ID
	for ops := uint8(0); ops < 9; ops++ {
		f.Add(ops, []byte(`{"host":"`+used+`"}`))
	}
	// The host-ID shapes the routes meet besides the cluster's own: the
	// fleet's zone/host-NNN paths (IDs may hold separators, which is why
	// the host rides in the body), one-letter path segments, bare
	// separators, an ID spelled with a JSON escape and a non-ASCII one,
	// each sent to every pair of routes.
	for _, id := range []string{"edge-a/host-001", "a/b", "zone/", "/", `host-\u0030`, "hôst-0"} {
		for ops := uint8(0); ops < 9; ops++ {
			f.Add(ops, []byte(`{"host":"`+id+`"}`))
		}
	}
	f.Add(uint8(2), []byte(`{"host":"`+ex.Cluster.Hosts[0].ID+`"}`))
	f.Add(uint8(2), []byte(`{"host":"no-such-host"}`))
	f.Add(uint8(0), []byte(`{"host":""}`))
	f.Add(uint8(1), []byte(`{"host":"`+used+`"} garbage`))
	f.Add(uint8(2), []byte(`{"host":"`+used+`","extra":1}`))
	f.Add(uint8(0), []byte(`{"host":7}`))
	f.Add(uint8(2), []byte(`{}`))
	f.Add(uint8(1), []byte(`null`))
	f.Add(uint8(0), []byte{})
	// IDs whose last path segment is one character, every letter and
	// digit, sent twice to each route (ops 0, 4 and 8). A branch on one
	// specific short suffix is at best one byte mutation away from a seed,
	// which a 10 s window rarely makes (a panic planted in drain for IDs
	// ending in "/x" survived every mutation-only window tried), so the
	// shape is enumerated instead.
	for _, c := range "abcdefghijklmnopqrstuvwxyz0123456789" {
		for r := uint8(0); r < 3; r++ {
			f.Add(4*r, []byte(`{"host":"zone/`+string(c)+`"}`))
		}
	}
	f.Fuzz(func(t *testing.T, ops uint8, body []byte) {
		if w := postRaw(s, "/v1/deployments", deploy); w.Code != http.StatusOK {
			t.Fatalf("deploy: status %d: %s", w.Code, w.Body)
		}
		defer func() {
			s.plane.Evict("q")
			for _, h := range s.plane.Hosts() {
				s.plane.Uncordon(h.ID)
			}
		}()
		for _, r := range []int{int(ops) % 3, int(ops) / 3 % 3} {
			route := routes[r]
			w := postRaw(s, route.path, body)
			if !slices.Contains(route.statuses, w.Code) {
				t.Fatalf("%s: status %d: %s", route.path, w.Code, w.Body)
			}
			if w.Code != http.StatusOK {
				continue
			}
			var resp HostRequest
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Host == "" {
				t.Fatalf("%s: 200 without a host: %v: %s", route.path, err, w.Body)
			}
			cordoned := slices.ContainsFunc(s.plane.Hosts(), func(h controlplane.HostStatus) bool {
				return h.ID == resp.Host && h.Cordoned
			})
			if want := r != 1; cordoned != want {
				t.Fatalf("after a 200 %s, host %q cordoned = %v, want %v", route.path, resp.Host, cordoned, want)
			}
			if r != 2 {
				continue
			}
			for _, st := range s.plane.List() {
				if st.Deployed && slices.Contains(st.Hosts, resp.Host) {
					t.Fatalf("after draining %q, %s still uses it: %v", resp.Host, st.ID, st.Hosts)
				}
			}
		}
	})
}
