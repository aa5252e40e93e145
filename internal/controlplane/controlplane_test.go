package controlplane

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"costream/internal/hardware"
	"costream/internal/obs"
	"costream/internal/placement"
	"costream/internal/qerror"
	"costream/internal/sim"
	"costream/internal/stream"
)

// testQuery is the analysis of a two-source join query.
func testQuery() *stream.Analysis {
	b := stream.NewBuilder()
	s1 := b.AddSource(500, []stream.DataType{stream.TypeInt, stream.TypeDouble})
	f1 := b.AddFilter(stream.FilterGT, stream.TypeInt, 0.5)
	s2 := b.AddSource(500, []stream.DataType{stream.TypeInt, stream.TypeInt})
	j := b.AddJoin(stream.TypeInt, stream.Window{Type: stream.WindowTumbling, Policy: stream.WindowCountBased, Size: 40, Slide: 40}, 0.001)
	k := b.AddSink()
	b.Connect(s1, f1).Connect(f1, j).Connect(s2, j).Connect(j, k)
	return analyzed(b.MustBuild())
}

// checked checks a test cluster, which must be valid.
func checked(c *hardware.Cluster) hardware.Checked {
	k, err := c.Check()
	if err != nil {
		panic(err)
	}
	return k
}

// analyzed analyses a test query, which must be valid.
func analyzed(q *stream.Query) *stream.Analysis {
	a, err := q.Analyze()
	if err != nil {
		panic(err)
	}
	return a
}

func testCluster() *hardware.Cluster {
	return &hardware.Cluster{Hosts: []*hardware.Host{
		{ID: "edge-0", CPU: 50, RAMMB: 1000, NetLatencyMS: 80, NetBandwidthMbps: 50},
		{ID: "edge-1", CPU: 100, RAMMB: 2000, NetLatencyMS: 40, NetBandwidthMbps: 100},
		{ID: "fog-0", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
		{ID: "cloud-0", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}}
}

// fakePred is a deterministic predictor whose cost surface rewards strong
// hosts, so searches have a reproducible optimum to find.
type fakePred struct{}

func fakeCosts(c *hardware.Cluster, p sim.Placement) placement.PredCosts {
	lat := 0.0
	for i, h := range p {
		lat += float64(i+1) * 500 / c.Hosts[h].CPU
	}
	return placement.PredCosts{
		ProcLatencyMS: lat,
		E2ELatencyMS:  2 * lat,
		ThroughputTPS: 1e6 / (1 + lat),
		Success:       true,
	}
}

func (fakePred) NewScoreSession(q *stream.Analysis, c hardware.Checked) (placement.TileScorer, error) {
	return placement.PredictorFunc(func(q *stream.Analysis, c hardware.Checked, p sim.Placement) (placement.PredCosts, error) {
		return fakeCosts(c.Cluster(), p), nil
	}).NewScoreSession(q, c)
}

// stubFeed replays a fixed observation (or error) and records the
// placements it was asked to observe.
type stubFeed struct {
	mu       sync.Mutex
	metrics  sim.Metrics
	err      error
	observed []sim.Placement
}

func (f *stubFeed) Observe(q *stream.Analysis, c hardware.Checked, p sim.Placement) (*sim.Metrics, error) {
	f.mu.Lock()
	f.observed = append(f.observed, append(sim.Placement(nil), p...))
	f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	m := f.metrics
	return &m, nil
}

// matchingFeed echoes the fake predictor's costs back as observations, so
// q-errors stay at 1 and the deployment looks healthy.
func matchingFeed(c *hardware.Cluster, p sim.Placement) *stubFeed {
	pc := fakeCosts(c, p)
	return &stubFeed{metrics: sim.Metrics{
		ThroughputTPS: pc.ThroughputTPS,
		ProcLatencyMS: pc.ProcLatencyMS,
		E2ELatencyMS:  pc.E2ELatencyMS,
		Success:       true,
	}}
}

func testPolicy() Policy {
	return Policy{Predictor: fakePred{}, Strategy: placement.LocalSearch{}}
}

func deployFor(t *testing.T, q *stream.Analysis, c *hardware.Cluster) *Deployment {
	t.Helper()
	d := &Deployment{ID: "q1", Query: q}
	if err := testPolicy().Deploy(context.Background(), d, View{Cluster: checked(c)}, placement.SearchOptions{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if !d.Deployed || len(d.Placement) != q.Query().NumOps() {
		t.Fatalf("deploy left bad state: %+v", d)
	}
	return d
}

func TestHealHealthy(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	before := *d
	feed := matchingFeed(c, d.Placement)
	dec, err := testPolicy().Heal(context.Background(), d, View{Cluster: checked(c)}, nil, feed, 100, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Violation != "" || dec.Action != "" {
		t.Fatalf("healthy deployment got decision %+v", dec)
	}
	if !dec.Observed || dec.QErrThroughput > 1.01 || dec.QErrProcLatency > 1.01 {
		t.Fatalf("expected observed q-errors ~1, got %+v", dec)
	}
	if !reflect.DeepEqual(before.Placement, d.Placement) || before.LastMoveS != d.LastMoveS {
		t.Fatalf("healthy pass mutated the deployment: %+v -> %+v", before, *d)
	}
}

func TestHealQErrorDriftMigrates(t *testing.T) {
	q, c := testQuery(), testCluster()
	// Start from a deliberately bad incumbent (everything on the weakest
	// host that is still valid) so the search can improve on it.
	d := deployFor(t, q, c)
	bad := append(sim.Placement(nil), d.Placement...)
	for i := range bad {
		bad[i] = 0
	}
	if err := bad.Validate(q.Query(), c); err == nil {
		d.Placement = bad
		d.Predicted = fakeCosts(c, bad)
	}
	pc := d.Predicted
	feed := &stubFeed{metrics: sim.Metrics{
		ThroughputTPS: pc.ThroughputTPS / 10, // 10x q-error: clear drift
		ProcLatencyMS: pc.ProcLatencyMS * 10,
		Success:       true,
	}}
	dec, err := testPolicy().Heal(context.Background(), d, View{Cluster: checked(c)}, nil, feed, 100, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Violation != ViolationQErrorDrift {
		t.Fatalf("violation = %q, want %q (decision %+v)", dec.Violation, ViolationQErrorDrift, dec)
	}
	if math.Abs(dec.QErrThroughput-10) > 0.01 || math.Abs(dec.QErrProcLatency-10) > 0.01 {
		t.Fatalf("q-errors = %v/%v, want ~10", dec.QErrThroughput, dec.QErrProcLatency)
	}
	if dec.Action != ActionMigrated {
		t.Fatalf("action = %q, want %q", dec.Action, ActionMigrated)
	}
	if d.LastMoveS != 100 {
		t.Fatalf("LastMoveS = %v, want 100", d.LastMoveS)
	}
}

func TestHealDriftSuppressedByCooldown(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	d.LastMoveS = 95
	pc := d.Predicted
	feed := &stubFeed{metrics: sim.Metrics{
		ThroughputTPS: pc.ThroughputTPS / 10,
		ProcLatencyMS: pc.ProcLatencyMS * 10,
		Success:       true,
	}}
	pol := testPolicy()
	pol.Hysteresis = placement.Hysteresis{CooldownS: 60}
	before := append(sim.Placement(nil), d.Placement...)
	dec, err := pol.Heal(context.Background(), d, View{Cluster: checked(c)}, nil, feed, 100, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Violation != ViolationQErrorDrift {
		t.Fatalf("violation = %q, want drift", dec.Violation)
	}
	if !dec.Suppressed() {
		t.Fatalf("action = %q, want suppressed (cooldown active)", dec.Action)
	}
	if !reflect.DeepEqual(before, d.Placement) {
		t.Fatal("suppressed decision moved the placement")
	}
	// Suppression re-bases the prediction so a tolerated drift does not
	// re-fire forever.
	if d.Predicted != fakeCosts(c, d.Placement) {
		t.Fatal("suppressed decision did not re-base the prediction")
	}
}

// countingPred is fakePred counting the scoring sessions opened on it.
type countingPred struct{ sessions atomic.Int64 }

func (p *countingPred) NewScoreSession(q *stream.Analysis, c hardware.Checked) (placement.TileScorer, error) {
	p.sessions.Add(1)
	return fakePred{}.NewScoreSession(q, c)
}

// TestHealKeptIncumbentScoresOnce: a drift heal whose search keeps the
// incumbent re-bases the prediction on the search's own costs for it, so
// the pass opens one scoring session, and the re-based prediction is bit
// for bit what PredictOne says of the incumbent.
func TestHealKeptIncumbentScoresOnce(t *testing.T) {
	q, c := testQuery(), checked(testCluster())
	// Everything on the strongest host is fakeCosts' unique optimum.
	inc := sim.Placement{3, 3, 3, 3, 3}
	want, err := placement.PredictOne(fakePred{}, q, c, inc)
	if err != nil {
		t.Fatal(err)
	}
	stale := want
	stale.ProcLatencyMS *= 10
	d := &Deployment{ID: "q1", Query: q, Placement: inc, Predicted: stale, Deployed: true}
	feed := &stubFeed{metrics: sim.Metrics{
		ThroughputTPS: want.ThroughputTPS,
		ProcLatencyMS: want.ProcLatencyMS,
		E2ELatencyMS:  want.E2ELatencyMS,
		Success:       true,
	}}
	pred := &countingPred{}
	pol := testPolicy()
	pol.Predictor = pred
	dec, err := pol.Heal(context.Background(), d, View{Cluster: c}, nil, feed, 100, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Violation != ViolationQErrorDrift || dec.Action != suppressedPrefix+"search kept the incumbent" {
		t.Fatalf("decision %+v, want a drift the search answered with the incumbent", dec)
	}
	if n := pred.sessions.Load(); n != 1 {
		t.Fatalf("the pass opened %d scoring sessions, want 1", n)
	}
	bits := func(pc placement.PredCosts) [5]uint64 {
		return [5]uint64{math.Float64bits(pc.ThroughputTPS), math.Float64bits(pc.ProcLatencyMS),
			math.Float64bits(pc.E2ELatencyMS), boolBit(pc.Backpressured), boolBit(pc.Success)}
	}
	if bits(d.Predicted) != bits(want) {
		t.Fatalf("re-based prediction %+v, want PredictOne's %+v", d.Predicted, want)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestHealObservedFailure(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	pc := d.Predicted
	feed := &stubFeed{metrics: sim.Metrics{
		ThroughputTPS: pc.ThroughputTPS,
		ProcLatencyMS: pc.ProcLatencyMS,
		Success:       false,
	}}
	dec, err := testPolicy().Heal(context.Background(), d, View{Cluster: checked(c)}, nil, feed, 50, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Violation != ViolationObservedFailure {
		t.Fatalf("violation = %q, want %q", dec.Violation, ViolationObservedFailure)
	}
	if dec.Action == "" {
		t.Fatal("observed failure must produce an action")
	}
}

func TestHealDeadHostForcesReplacement(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	dead := []int{d.Placement[0]} // the host under the first operator went down
	feed := &stubFeed{}
	dec, err := testPolicy().Heal(context.Background(), d, View{Cluster: checked(c), Banned: dead, Down: dead}, nil, feed, 50, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Violation != ViolationDeadHost || dec.Action != ActionReplaced {
		t.Fatalf("decision = %+v, want dead-host/replaced", dec)
	}
	if len(feed.observed) != 0 {
		t.Fatal("dead-host violation must not observe the broken placement")
	}
	for i, h := range d.Placement {
		if h == dead[0] {
			t.Fatalf("replacement placement still on the dead host at op %d: %v", i, d.Placement)
		}
	}
	if d.LastMoveS != 50 || !d.Deployed {
		t.Fatalf("replacement bookkeeping wrong: %+v", d)
	}
}

func TestHealCordonedHostForcesReplacementOffHost(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	// Cordon every host the incumbent touches that is not required for
	// validity; cordoning the strongest incumbent host is enough.
	banned := []int{int(d.Placement[len(d.Placement)-1])}
	feed := &stubFeed{}
	dec, err := testPolicy().Heal(context.Background(), d, View{Cluster: checked(c), Banned: banned}, nil, feed, 50, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Violation != ViolationCordonedHost || dec.Action != ActionReplaced {
		t.Fatalf("decision = %+v, want cordoned-host/replaced", dec)
	}
	if len(feed.observed) != 0 {
		t.Fatal("cordoned-host violation must not run an observation")
	}
	for _, h := range d.Placement {
		for _, b := range banned {
			if int(h) == b {
				t.Fatalf("replacement still touches cordoned host %d: %v", b, d.Placement)
			}
		}
	}
}

// TestHealBannedHostViolationKind: an incumbent host listed only in
// View.Banned reads as cordoned, one listed in View.Down as well reads as
// dead, and either way the deployment is moved off it without an
// observation.
func TestHealBannedHostViolationKind(t *testing.T) {
	for _, tc := range []struct {
		name string
		down bool
		want string
	}{
		{"cordoned", false, ViolationCordonedHost},
		{"down", true, ViolationDeadHost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, c := testQuery(), testCluster()
			d := deployFor(t, q, c)
			host := d.Placement[len(d.Placement)-1]
			v := View{Cluster: checked(c), Banned: []int{host}}
			if tc.down {
				v.Down = v.Banned
			}
			feed := &stubFeed{}
			dec, err := testPolicy().Heal(context.Background(), d, v, nil, feed, 50, placement.SearchOptions{Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			if dec.Violation != tc.want || dec.Action != ActionReplaced || dec.Observed {
				t.Fatalf("decision = %+v, want %s/replaced, unobserved", dec, tc.want)
			}
			if len(feed.observed) != 0 {
				t.Fatalf("%s violation ran %d observations", tc.want, len(feed.observed))
			}
			if slices.Contains(d.Placement, host) {
				t.Fatalf("replacement %v still uses host %d", d.Placement, host)
			}
		})
	}
}

// TestObserveMatchesHealthyHeal: Observe returns exactly the decision
// Heal reports for a healthy deployment — the observation and nothing
// judged — plus the feed's metrics, and writes nothing to the deployment.
func TestObserveMatchesHealthyHeal(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	pc := d.Predicted
	// Off the prediction by less than the default threshold of 2.
	feed := &stubFeed{metrics: sim.Metrics{
		ThroughputTPS: pc.ThroughputTPS / 1.5,
		ProcLatencyMS: pc.ProcLatencyMS * 1.25,
		E2ELatencyMS:  pc.E2ELatencyMS,
		Success:       true,
	}}
	before := *d
	obsDec, m, err := Observe(d, checked(c), q, feed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, *d) {
		t.Fatalf("Observe wrote the deployment: %+v -> %+v", before, *d)
	}
	if !reflect.DeepEqual(*m, feed.metrics) {
		t.Fatalf("metrics = %+v, want the feed's %+v", *m, feed.metrics)
	}
	healDec, err := testPolicy().Heal(context.Background(), d, View{Cluster: checked(c)}, nil, feed, 100, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if healDec.Violation != "" {
		t.Fatalf("heal judged the deployment violated: %+v", healDec)
	}
	if obsDec != healDec {
		t.Fatalf("Observe = %+v, Heal reported %+v", obsDec, healDec)
	}
	if !obsDec.Observed || math.Abs(obsDec.QErrThroughput-1.5) > 1e-9 || math.Abs(obsDec.QErrProcLatency-1.25) > 1e-9 ||
		obsDec.PredLatencyMS != pc.ProcLatencyMS || obsDec.ObsLatencyMS != feed.metrics.ProcLatencyMS {
		t.Fatalf("Observe = %+v, want q-errors 1.5 and 1.25 and both latencies", obsDec)
	}
}

func TestHealUndeployedRedeploys(t *testing.T) {
	q, c := testQuery(), checked(testCluster())
	d := &Deployment{ID: "q1", Query: q}
	dec, err := testPolicy().Heal(context.Background(), d, View{Cluster: c}, nil, &stubFeed{}, 25, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Violation != ViolationUndeployed || dec.Action != ActionRedeployed {
		t.Fatalf("decision = %+v, want undeployed/redeployed", dec)
	}
	if !d.Deployed || len(d.Placement) != q.Query().NumOps() {
		t.Fatalf("redeploy left bad state: %+v", d)
	}
}

func TestHealUndeploysWhenNothingSchedulable(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	banned := []int{0, 1, 2, 3}
	dec, err := testPolicy().Heal(context.Background(), d, View{Cluster: checked(c), Banned: banned}, nil, &stubFeed{}, 50, placement.SearchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Action != ActionUndeployed || d.Deployed || d.Placement != nil {
		t.Fatalf("decision = %+v, deployment %+v; want undeployed", dec, d)
	}
}

// TestHealCancelledLeavesNoTornState: a context cancelled before the
// re-optimization scores anything returns ctx.Err() with the deployment
// untouched — callers never observe half-applied migrations.
func TestHealCancelledLeavesNoTornState(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	dead := []int{d.Placement[0]} // forced violation, so Heal goes straight to search
	before := *d
	before.Placement = append(sim.Placement(nil), d.Placement...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := testPolicy().Heal(ctx, d, View{Cluster: checked(c), Banned: dead, Down: dead}, nil, &stubFeed{}, 50, placement.SearchOptions{Seed: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(before.Placement, d.Placement) ||
		before.Deployed != d.Deployed || before.LastMoveS != d.LastMoveS ||
		before.Predicted != d.Predicted {
		t.Fatalf("cancelled heal mutated the deployment:\n before %+v\n after  %+v", before, *d)
	}
}

func TestHealObserveErrorPropagates(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	feed := &stubFeed{err: errors.New("probe down")}
	_, err := testPolicy().Heal(context.Background(), d, View{Cluster: checked(c)}, nil, feed, 50, placement.SearchOptions{Seed: 8})
	if err == nil || !strings.Contains(err.Error(), "probe down") {
		t.Fatalf("err = %v, want wrapped probe error", err)
	}
}

func TestPlaneDeployCordonTickHistory(t *testing.T) {
	q, c := testQuery(), testCluster()
	pl, err := New(Config{
		Policy: testPolicy(),
		Feed:   matchingFeed(c, nil), // q-errors 1 only if placement matches; see below
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The matching feed above was built for a nil placement; rebuild it
	// after the deploy so observations match the actual incumbent.
	st, err := pl.Deploy(context.Background(), "q1", q, checked(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Deployed || len(st.Hosts) != q.Query().NumOps() || len(st.History) != 1 || st.History[0].Action != ActionDeployed {
		t.Fatalf("deploy status = %+v", st)
	}
	pl.cfg.Feed = matchingFeed(c, pl.deps["q1"].d.Placement)

	if _, err := pl.Deploy(context.Background(), "q1", q, checked(c), nil); err == nil {
		t.Fatal("duplicate deploy must fail")
	} else {
		var dup *DuplicateError
		if !errors.As(err, &dup) || dup.ID != "q1" {
			t.Fatalf("duplicate deploy error = %v, want DuplicateError", err)
		}
	}
	if _, err := pl.Deploy(context.Background(), "bad/id", q, checked(c), nil); err == nil {
		t.Fatal("slash in deployment id must be rejected")
	}

	// Healthy tick: no violations, no history growth.
	rep, err := pl.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tick != 1 || rep.Healed != 1 || rep.Violations != 0 || rep.Migrations != 0 {
		t.Fatalf("healthy tick report = %+v", rep)
	}

	// Cordon a host the incumbent uses: the next tick must move off it.
	victim := pl.deps["q1"].d.Placement[len(pl.deps["q1"].d.Placement)-1]
	host := c.Hosts[victim].ID
	if !pl.Cordon(host) {
		t.Fatal("cordon reported no change")
	}
	if pl.Cordon(host) {
		t.Fatal("double cordon reported a change")
	}
	rep, err = pl.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 1 || rep.Migrations != 1 {
		t.Fatalf("cordon tick report = %+v, want 1 violation, 1 migration", rep)
	}
	st, ok := pl.Get("q1")
	if !ok {
		t.Fatal("q1 vanished")
	}
	for _, h := range st.Hosts {
		if h == host {
			t.Fatalf("placement still on cordoned host %s: %v", host, st.Hosts)
		}
	}
	last := st.History[len(st.History)-1]
	if last.Violation != ViolationCordonedHost || last.Action != ActionReplaced {
		t.Fatalf("history tail = %+v, want cordoned-host/replaced", last)
	}
	// The feed now mismatches the new incumbent, but the cordon test is
	// done; re-base observations before checking host aggregation.
	pl.cfg.Feed = matchingFeed(c, pl.deps["q1"].d.Placement)

	hosts := pl.Hosts()
	var sawCordoned, sawPlaced bool
	for _, h := range hosts {
		if h.ID == host && h.Cordoned {
			sawCordoned = true
		}
		if h.Deployments > 0 {
			sawPlaced = true
		}
	}
	if !sawCordoned || !sawPlaced {
		t.Fatalf("host aggregation missing cordon or placement info: %+v", hosts)
	}
	if !pl.Uncordon(host) || pl.Uncordon(host) {
		t.Fatal("uncordon change-tracking wrong")
	}

	if !pl.Evict("q1") || pl.Evict("q1") {
		t.Fatal("evict change-tracking wrong")
	}
	if got := pl.List(); len(got) != 0 {
		t.Fatalf("list after evict = %+v", got)
	}
}

func TestPlaneDrainHealsImmediately(t *testing.T) {
	q, c := testQuery(), testCluster()
	pl, err := New(Config{Policy: testPolicy(), Feed: &stubFeed{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Deploy(context.Background(), "q1", q, checked(c), nil); err != nil {
		t.Fatal(err)
	}
	victim := pl.deps["q1"].d.Placement[len(pl.deps["q1"].d.Placement)-1]
	host := c.Hosts[victim].ID
	healed, err := pl.Drain(context.Background(), host)
	if err != nil {
		t.Fatal(err)
	}
	if len(healed) != 1 || healed[0] != "q1" {
		t.Fatalf("drain healed %v, want [q1]", healed)
	}
	st, _ := pl.Get("q1")
	for _, h := range st.Hosts {
		if h == host {
			t.Fatalf("drained deployment still on %s: %v", host, st.Hosts)
		}
	}
	// Draining a host nothing uses heals nothing.
	healed, err = pl.Drain(context.Background(), "no-such-host")
	if err != nil || len(healed) != 0 {
		t.Fatalf("idle drain = %v, %v", healed, err)
	}
}

func TestPlaneAdoptedPlacementRejectsCordoned(t *testing.T) {
	q, c := testQuery(), testCluster()
	pl, err := New(Config{Policy: testPolicy(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := deployFor(t, q, c)
	pl.Cordon(c.Hosts[d.Placement[0]].ID)
	if _, err := pl.Deploy(context.Background(), "q1", q, checked(c), d.Placement); err == nil {
		t.Fatal("adopting a placement on a cordoned host must fail")
	}
	// The same placement deploys fine once the host is uncordoned, and the
	// adopted placement round-trips through the status.
	pl.Uncordon(c.Hosts[d.Placement[0]].ID)
	st, err := pl.Deploy(context.Background(), "q1", q, checked(c), d.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Placement, d.Placement) {
		t.Fatalf("adopted placement %v != requested %v", st.Placement, d.Placement)
	}
}

func TestPlaneHistoryLimit(t *testing.T) {
	q, c := testQuery(), checked(testCluster())
	pl, err := New(Config{Policy: testPolicy(), Feed: &stubFeed{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Deploy(context.Background(), "q1", q, c, nil); err != nil {
		t.Fatal(err)
	}
	// The stub feed returns zero metrics, which never match predictions:
	// every tick records a violation entry.
	const ticks = historyLimit + 3
	for i := 0; i < ticks; i++ {
		if _, err := pl.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := pl.Get("q1")
	if len(st.History) != historyLimit {
		t.Fatalf("history length = %d, want limit %d", len(st.History), historyLimit)
	}
	if last := st.History[historyLimit-1]; last.Tick != ticks {
		t.Fatalf("newest entry is from tick %d, want %d: the bound must drop the oldest", last.Tick, ticks)
	}
}

func TestPlaneTickCancelledReturnsPartialReport(t *testing.T) {
	q, c := testQuery(), checked(testCluster())
	pl, err := New(Config{Policy: testPolicy(), Feed: &stubFeed{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Deploy(context.Background(), "q1", q, c, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.Tick(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled tick err = %v, want context.Canceled", err)
	}
	// The interrupted deployment is intact and heals fine afterwards.
	if _, err := pl.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// routedFeed observes each query through a feed of its own.
type routedFeed map[*stream.Analysis]MetricFeed

func (f routedFeed) Observe(q *stream.Analysis, c hardware.Checked, p sim.Placement) (*sim.Metrics, error) {
	return f[q].Observe(q, c, p)
}

// TestPlaneTickFailureDoesNotBlockOthers: a deployment whose heal fails
// keeps its state and is named in the tick's error, while a deployment
// sorted after it is still healed on every tick.
func TestPlaneTickFailureDoesNotBlockOthers(t *testing.T) {
	qa, qb, c := testQuery(), testQuery(), checked(testCluster())
	pl, err := New(Config{Policy: testPolicy(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Deployment{{ID: "a", Query: qa}, {ID: "b", Query: qb}} {
		if _, err := pl.Deploy(context.Background(), d.ID, d.Query, c, nil); err != nil {
			t.Fatal(err)
		}
	}
	pb := pl.deps["b"].d.Predicted
	pl.cfg.Feed = routedFeed{
		qa: &stubFeed{err: errors.New("probe down")},
		qb: &stubFeed{metrics: sim.Metrics{
			ThroughputTPS: pb.ThroughputTPS / 10, // 10x q-error: clear drift
			ProcLatencyMS: pb.ProcLatencyMS * 10,
			Success:       true,
		}},
	}
	aBefore, _ := pl.Get("a")
	for tick := 1; tick <= 3; tick++ {
		rep, err := pl.Tick(context.Background())
		if err == nil || !strings.Contains(err.Error(), "observing a: probe down") {
			t.Fatalf("tick %d: err = %v, want a's probe failure", tick, err)
		}
		if rep.Healed != 1 || rep.Violations != 1 {
			t.Fatalf("tick %d: report %+v, want b alone healed with one violation", tick, rep)
		}
		st, _ := pl.Get("b")
		if len(st.History) != 1+tick {
			t.Fatalf("tick %d: b has %d history entries, want %d", tick, len(st.History), 1+tick)
		}
		if last := st.History[tick]; last.Tick != tick || last.Violation != ViolationQErrorDrift {
			t.Fatalf("tick %d: b's newest entry %+v, want a q-error drift at this tick", tick, last)
		}
	}
	if aAfter, _ := pl.Get("a"); !reflect.DeepEqual(aBefore, aAfter) {
		t.Fatalf("failed heals changed a:\n before %+v\n after  %+v", aBefore, aAfter)
	}
}

// atGOMAXPROCS runs f at GOMAXPROCS n and then restores the previous
// setting. A test that calls it must not call t.Parallel.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestPlanePassIndependentOfGOMAXPROCS runs three ticks over eight
// deployments adopted on random placements and observed by the simulator
// feed — several migrate on the first tick, a cordon forces replacements
// on the second — and requires the same reports, statuses, histories and
// log lines at GOMAXPROCS 1 and 4, every tick's lines in sorted-id order.
func TestPlanePassIndependentOfGOMAXPROCS(t *testing.T) {
	type run struct {
		reps     []TickReport
		statuses []Status
		logs     []string
	}
	play := func() run {
		var r run
		q, c := testQuery(), checked(testCluster())
		pl, err := New(Config{Policy: testPolicy(), Seed: 17, Logf: func(format string, args ...any) {
			r.logs = append(r.logs, fmt.Sprintf(format, args...))
		}})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := range 8 {
			p, err := placement.RandomValid(rng, q, c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pl.Deploy(context.Background(), fmt.Sprintf("d%d", i), q, c, p); err != nil {
				t.Fatal(err)
			}
		}
		for tick := 1; tick <= 3; tick++ {
			if tick == 2 {
				pl.Cordon("cloud-0")
			}
			rep, err := pl.Tick(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			r.reps = append(r.reps, rep)
		}
		for _, st := range pl.List() {
			full, _ := pl.Get(st.ID)
			r.statuses = append(r.statuses, full)
		}
		return r
	}
	var serial, parallel run
	atGOMAXPROCS(1, func() { serial = play() })
	atGOMAXPROCS(4, func() { parallel = play() })
	if serial.reps[0].Migrations < 2 || serial.reps[1].Migrations == 0 {
		t.Fatalf("reports %+v: want several migrations on tick 1 and replacements on tick 2", serial.reps)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("GOMAXPROCS 1 and 4 differ:\n 1: %+v\n 4: %+v", serial, parallel)
	}
	last := ""
	for _, line := range serial.logs {
		id, decision, _ := strings.Cut(strings.TrimPrefix(line, "controlplane: "), ": ")
		switch {
		case !strings.Contains(decision, " -> "):
			last = "" // a deploy or a tick's summary line
		case id <= last:
			t.Fatalf("log line %q after %s: not in sorted-id order", line, last)
		default:
			last = id
		}
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for stage := 0; stage < 8; stage++ {
		for i := 0; i < 8; i++ {
			s := DeriveSeed(42, stage, i)
			if seen[s] {
				t.Fatalf("DeriveSeed collision at stage=%d i=%d", stage, i)
			}
			seen[s] = true
		}
	}
}

// BenchmarkControlTick measures one control tick over a small fleet of
// deployments with simulator-backed observations — the steady-state cost
// of the serve control loop per tick.
func BenchmarkControlTick(b *testing.B) {
	q, c := testQuery(), checked(testCluster())
	pl, err := New(Config{
		Policy: Policy{Predictor: fakePred{}, QErrorThreshold: 1e9},
		Feed:   SimFeed{Cfg: sim.Config{DurationS: 2, WarmupS: 0.5, StepS: 0.1, Seed: 1}},
		Seed:   5,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range []string{"q1", "q2", "q3"} {
		if _, err := pl.Deploy(context.Background(), id, q, c, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Tick(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// qerrSample reads one costream_monitor_qerror sample off the default
// registry's exposition, 0 when the line is absent (an empty bucket is
// not written).
func qerrSample(t *testing.T, sample string) int64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "costream_monitor_qerror"+sample+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// TestObserveRecordsFailedRuns: a failed run reports zero throughput,
// and its q-error is recorded like any other observation's.
func TestObserveRecordsFailedRuns(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	const count = `_count{metric="throughput"}`
	before := qerrSample(t, count)
	dec, _, err := Observe(d, checked(c), q, &stubFeed{metrics: sim.Metrics{Success: false}})
	if err != nil {
		t.Fatal(err)
	}
	if got := qerrSample(t, count) - before; got != 1 {
		t.Errorf("a failed observation added %d throughput q-error samples, want 1", got)
	}
	if want := qerror.Q(0, d.Predicted.ThroughputTPS); dec.QErrThroughput != want {
		t.Errorf("throughput q-error %g, want qerror.Q's %g", dec.QErrThroughput, want)
	}
}

// TestObserveSaturatesHugeQError: a q-error past the int64 range in
// milli-units lands in the top bucket, not in the le="0" one.
func TestObserveSaturatesHugeQError(t *testing.T) {
	q, c := testQuery(), testCluster()
	d := deployFor(t, q, c)
	d.Predicted.ProcLatencyMS = 1e17
	const zero, count = `_bucket{metric="proc_latency",le="0"}`, `_count{metric="proc_latency"}`
	zeroBefore, countBefore := qerrSample(t, zero), qerrSample(t, count)
	feed := &stubFeed{metrics: sim.Metrics{ThroughputTPS: 1, ProcLatencyMS: 1, Success: true}}
	if _, _, err := Observe(d, checked(c), q, feed); err != nil {
		t.Fatal(err)
	}
	if got := qerrSample(t, count) - countBefore; got != 1 {
		t.Errorf("%d latency q-error samples added, want 1", got)
	}
	if got := qerrSample(t, zero) - zeroBefore; got != 0 {
		t.Errorf("a q-error of 1e17 added %d samples at le=\"0\", want 0", got)
	}
}
