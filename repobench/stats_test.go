package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/geo"
	"dits/internal/obs"
)

const msec = time.Millisecond

func TestPercentileNearestRank(t *testing.T) {
	var v []time.Duration
	for i := 1; i <= 100; i++ {
		v = append(v, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		named float64
		want  float64
	}{
		{1000, 0.99, 0.99}, // exactly ten above p99
		{999, 0.99, 0.95},  // nine above p99: fall back
		{100, 0.90, 0.90},
		{99, 0.90, 0.75},
		{5000, 0.95, 0.95}, // never above the named percentile
		{15, 0.99, 0},      // not even the median leaves ten
	} {
		got := tailPercentile(c.n, c.named)
		if got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.named, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < minBeyond {
			t.Errorf("tailPercentile(%d, %g) = %g leaves %d beyond", c.n, c.named, got, beyond(c.n, got))
		}
	}
}

func TestSelfTimeOverlappingParallelChildren(t *testing.T) {
	// An OJSP fan-out: three overlapping calls, one nested in another,
	// and one running past the parent's end.
	parent := interval{0, 100}
	children := []interval{{10, 50}, {20, 60}, {30, 40}, {90, 120}}
	// Union inside the parent: [10,60) and [90,100) = 60.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	// Identical parallel children count once.
	if got := selfTime(parent, []interval{{0, 50}, {0, 50}, {0, 50}}); got != 50 {
		t.Errorf("selfTime of identical children = %d, want 50", got)
	}
}

func TestCriticalPathFollowsSlowestOfEachWave(t *testing.T) {
	children := []interval{
		{0, 10}, {0, 30}, {5, 20}, // wave one: {0,30} blocks
		{35, 60}, {40, 50}, // wave two: {35,60} blocks
	}
	got := criticalPath(children)
	if !slices.Equal(got, []int{3, 1}) {
		t.Errorf("criticalPath = %v, want [3 1]", got)
	}
}

func TestSplitLayersAddsUp(t *testing.T) {
	// Client 100; handler [10,90); two waves of parallel calls.
	rpcs := []rpc{
		{peer: span{iv: interval{20, 40}}, busy: 15},
		{peer: span{iv: interval{20, 45}}, busy: 5},
		{peer: span{iv: interval{50, 80}}, busy: 20},
	}
	b := splitLayers(100, interval{10, 90}, rpcs)
	want := breakdown{client: 100, wait: 20, self: 25, overhead: 30, busy: 25, gap: 0}
	if b != want {
		t.Errorf("splitLayers = %+v, want %+v", b, want)
	}
	// A call starting before the critical one leaves its lead as gap.
	rpcs[0].peer.iv = interval{15, 40}
	b = splitLayers(100, interval{10, 90}, rpcs)
	if b.gap != 5 || b.wait+b.self+b.overhead+b.busy+b.gap != b.client {
		t.Errorf("splitLayers with a leading sibling = %+v, want gap 5 and parts summing to client", b)
	}
}

func TestCountWaves(t *testing.T) {
	ivs := []interval{{50, 60}, {0, 10}, {2, 12}, {11, 20}, {30, 40}}
	if got := countWaves(ivs); got != 3 {
		t.Errorf("countWaves = %d, want 3", got)
	}
}

func TestPairRPCsMatchesByTraceAndContainment(t *testing.T) {
	tr := obs.NewTraceID()
	spans := []span{
		{kind: kindPeer, trace: tr, source: "A", name: "coverage.round", iv: interval{0, 100}},
		{kind: kindPeer, trace: tr, source: "A", name: "coverage.round", iv: interval{200, 300}},
		{kind: kindSource, trace: tr, source: "A", name: "coverage.round", iv: interval{210, 260}},
		{kind: kindSource, trace: tr, source: "A", name: "coverage.round", iv: interval{10, 90}},
		// An untraced close matches by containment alone.
		{kind: kindPeer, source: "A", name: "coverage.close", iv: interval{400, 420}},
		{kind: kindSource, source: "A", name: "coverage.close", iv: interval{405, 406}},
		// A source span outside its peer's interval is not its call.
		{kind: kindPeer, source: "B", name: "coverage.close", iv: interval{500, 510}},
		{kind: kindSource, source: "B", name: "coverage.close", iv: interval{520, 521}},
	}
	var busy []time.Duration
	for _, r := range pairRPCs(spans) {
		busy = append(busy, r.busy)
	}
	if want := []time.Duration{80, 50, 1, 0}; !slices.Equal(busy, want) {
		t.Errorf("busy = %v, want %v", busy, want)
	}
}

func TestTallyCountsWrongAnswersAsFailed(t *testing.T) {
	var ta tally
	ta.add(true, true)   // answered, right
	ta.add(true, false)  // answered, wrong
	ta.add(false, true)  // non-2xx or transport error
	ta.add(false, false) // both: still one failed attempt
	if ta.attempted != 4 || ta.failed != 3 {
		t.Errorf("tally = %+v, want 4 attempted, 3 failed", ta)
	}
	if got := ta.frac(); got != 0.75 {
		t.Errorf("frac = %g, want 0.75", got)
	}
	if got := (tally{}).frac(); got != 0 {
		t.Errorf("empty frac = %g, want 0", got)
	}
}

func TestLatenessCountsOnlyThePacer(t *testing.T) {
	samples := []sample{
		{due: 0, enq: 0, sent: 0},
		{due: 10 * msec, enq: 9 * msec, sent: 9 * msec},   // early: not late
		{due: 20 * msec, enq: 25 * msec, sent: 25 * msec}, // pacer 5ms late
		{due: 30 * msec, enq: 30 * msec, sent: 70 * msec}, // waited for a client
	}
	got := lateness(samples)
	if want := []time.Duration{0, 0, 0, 5 * msec}; !slices.Equal(got, want) {
		t.Errorf("lateness = %v, want %v", got, want)
	}
}

// TestOpenLoopChargesQueueingToLatency runs the open loop against a server
// slower than the schedule: with one client, each request goes out later
// than due, and its latency counts from when it was due. The pacer still
// releases every request on time, so the wait is not generator lateness.
func TestOpenLoopChargesQueueingToLatency(t *testing.T) {
	const service = 20 * msec
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{"results":[]}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()
	q := &query{d: &dataset.Dataset{Points: []geo.Point{{X: 1, Y: 2}}}, k: 1}
	items := make([]item, 5)
	for i := range items {
		items[i] = item{op: opOJSP, q: q}
	}
	out := runOpen(c, items, 100, 1) // one due every 10ms, served every 20ms
	for i, s := range out {
		if !s.ok() {
			t.Fatalf("request %d failed: %v (status %d)", i, s.err, s.status)
		}
		if s.due != time.Duration(i)*10*msec {
			t.Errorf("request %d due at %v, want %v", i, s.due, time.Duration(i)*10*msec)
		}
		if s.sent < s.due {
			t.Errorf("request %d sent at %v, before it was due at %v", i, s.sent, s.due)
		}
	}
	// The last request waited behind four 20ms services, 40ms after it
	// was due at the earliest, though the pacer released it on time.
	if wait := out[4].sent - out[4].due; wait < 35*msec {
		t.Errorf("last request sent %v after due, want ≥ 35ms with one client behind a 20ms server", wait)
	}
	late := lateness(out)
	if worst := late[len(late)-1]; worst >= 20*msec {
		t.Errorf("pacer lateness %v: the client's queue was counted as the generator's", worst)
	}
	if got := out[4].latency(); got < 55*msec {
		t.Errorf("last latency %v, want ≥ 55ms (≥35ms late + 20ms service)", got)
	}
}

// fakePeer answers every call at once.
type fakePeer struct{}

func (fakePeer) Call(context.Context, string, any, any) error { return nil }
func (fakePeer) Close() error                                 { return nil }

// TestTracedPeerLinksSessionClose: the center closes a CJSP session on a
// fresh context, so the close carries no trace; the wrapper still files
// it under the request whose rounds opened the session.
func TestTracedPeerLinksSessionClose(t *testing.T) {
	r := newRecorder()
	p := r.wrapPeer("A", fakePeer{})
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	p.Call(ctx, federation.MethodCoverageRound, &federation.CoverageRoundRequest{Session: 7}, nil)
	p.Call(context.Background(), federation.MethodSessionClose, &federation.SessionCloseRequest{Session: 7}, nil)
	p.Call(context.Background(), federation.MethodSessionClose, &federation.SessionCloseRequest{Session: 8}, nil)
	spans := r.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[0].req != tr.ID() || spans[0].trace != tr.ID() {
		t.Errorf("round: req %v trace %v, want both %v", spans[0].req, spans[0].trace, tr.ID())
	}
	if spans[1].req != tr.ID() || !spans[1].trace.IsZero() {
		t.Errorf("close: req %v trace %v, want req %v and no carried trace", spans[1].req, spans[1].trace, tr.ID())
	}
	if !spans[2].req.IsZero() {
		t.Errorf("close of an unknown session linked to %v", spans[2].req)
	}
}

// TestOpenLoopReadsDoNotQueueBehindWrites: when a schedule mixes reads
// with writes, reads have their own client, so two slow writes in flight
// do not hold up the reads due while they run.
func TestOpenLoopReadsDoNotQueueBehindWrites(t *testing.T) {
	const write = 50 * msec
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ingest/dataset" {
			time.Sleep(write)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.close()
	q := &query{d: &dataset.Dataset{Points: []geo.Point{{X: 1, Y: 2}}}, k: 1}
	put := func(id int) item {
		return item{op: opIngest, mut: &mutation{id: id, name: "d", pts: [][2]float64{{1, 2}}, acked: make(chan struct{})}}
	}
	// Due every 10ms: two writes, then two reads while both writes run.
	items := []item{put(1), put(2), {op: opOJSP, q: q}, {op: opOJSP, q: q}}
	out := runOpen(c, items, 100, 2)
	for i, s := range out {
		if !s.ok() {
			t.Fatalf("request %d failed: %v (status %d)", i, s.err, s.status)
		}
	}
	for _, s := range out[2:] {
		if l := s.latency(); l >= 30*msec {
			t.Errorf("read due at %v took %v: it queued behind a write", s.due, l)
		}
	}
	// The writes share one client: the second waits for the first.
	if l := out[1].latency(); l < 80*msec {
		t.Errorf("second write took %v, want ≥ 80ms behind the first on its client", l)
	}
}

// TestCJSPRoundsSameUnderEverySeed: two seeds deal the same (dataset, k)
// pairs round by round, one per size stratum, in different orders.
func TestCJSPRoundsSameUnderEverySeed(t *testing.T) {
	src := &dataset.Source{Name: "S"}
	for i := range 25 {
		d := &dataset.Dataset{ID: i}
		for j := 0; j <= i; j++ {
			d.Points = append(d.Points, geo.Point{X: float64(10*i + j), Y: float64(j)})
		}
		src.Datasets = append(src.Datasets, d)
	}
	type pick struct{ id, k int }
	const strata, rounds = 3, 4
	deal := func(seed int64) ([]pick, []item) {
		items := newGenerator([]*dataset.Source{src}, seed).cjspList(strata * rounds)
		var out []pick
		for _, it := range items {
			out = append(out, pick{it.q.d.ID, it.q.k})
		}
		return out, items
	}
	a, items := deal(1)
	b, _ := deal(2)
	for r := range rounds {
		ra, rb := a[r*strata:(r+1)*strata], b[r*strata:(r+1)*strata]
		byID := func(x, y pick) int { return x.id - y.id }
		if !slices.Equal(slices.SortedFunc(slices.Values(ra), byID), slices.SortedFunc(slices.Values(rb), byID)) {
			t.Errorf("round %d: seed 1 deals %v, seed 2 %v", r, ra, rb)
		}
		seen := make(map[int]bool)
		for _, p := range ra {
			seen[p.id/10] = true // datasets are sized by ID: stratum = ID/10
		}
		if len(seen) != strata {
			t.Errorf("round %d draws from %d strata, want %d: %v", r, len(seen), strata, ra)
		}
	}
	if slices.Equal(a, b) {
		t.Error("two seeds dealt the same order")
	}
	for _, it := range items {
		if it.q.k < 1 || it.q.k > cjspMaxK {
			t.Errorf("k = %d outside 1..%d", it.q.k, cjspMaxK)
		}
	}
}

// TestCachedOJSPBodyMatchesEncoding: a hot query's body encoded before
// the run is byte for byte what encoding it at send time gives.
func TestCachedOJSPBodyMatchesEncoding(t *testing.T) {
	q := &query{d: &dataset.Dataset{Points: []geo.Point{{X: 1.5, Y: -2}, {X: 179.9, Y: 0.125}}}, dx: 0.25, dy: -0.5, k: 10}
	fresh := appendQuery(nil, q, -1)
	q.ojsp = appendQuery(nil, q, -1)
	if got := appendQuery([]byte("x"), q, -1); string(got) != "x"+string(fresh) {
		t.Errorf("cached body %s, want %s", got, fresh)
	}
	if got := appendQuery(nil, q, cjspDelta); string(got) == string(fresh) {
		t.Error("a CJSP body reused the cached OJSP body")
	}
}
