package main

import (
	"context"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"dits/internal/federation"
	"dits/internal/obs"
	"dits/internal/transport"
)

// The traced run records one span per call across three public layer
// boundaries: the gateway's HTTP handler, each peer the center calls a
// source through, and each source's transport handler. Spans are kept in
// memory and analysed when the run ends. The spans of one request are
// linked by the trace ID the gateway assigns, which the gateway returns
// in X-Dits-Trace-Id and the transport carries to the sources.

type spanKind uint8

const (
	kindGateway spanKind = iota // gateway.Handler(): decode … encode
	kindPeer                    // Center → source call through the pool
	kindSource                  // the source's handler, inside the transport
)

type span struct {
	kind  spanKind
	trace obs.TraceID // as the call carried it
	// req is the request a peer call serves: its trace, or for a
	// coverage.close, which the center sends without one, the trace of
	// the rounds that opened the session.
	req    obs.TraceID
	source string
	name   string // endpoint path for the gateway, method otherwise
	iv     interval
	useful bool // an overlap.search call that returned ≥1 dataset
}

type recorder struct {
	base     time.Time
	mu       sync.Mutex
	spans    []span
	sessions map[uint64]obs.TraceID // CJSP session → trace of its rounds
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), sessions: make(map[uint64]obs.TraceID)}
}

func (r *recorder) now() time.Duration { return time.Since(r.base) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far (set-up and warm-up traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

func traceOf(ctx context.Context) obs.TraceID {
	if tr := obs.TraceFrom(ctx); tr != nil {
		return tr.ID()
	}
	return obs.TraceID{}
}

func (r *recorder) wrapGateway(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		next.ServeHTTP(w, req)
		id, _ := obs.ParseTraceID(w.Header().Get("X-Dits-Trace-Id"))
		r.add(span{kind: kindGateway, trace: id, name: req.URL.Path, iv: interval{start, r.now()}})
	})
}

type tracedPeer struct {
	r      *recorder
	source string
	inner  transport.Peer
}

func (r *recorder) wrapPeer(source string, inner transport.Peer) transport.Peer {
	return &tracedPeer{r: r, source: source, inner: inner}
}

// Call records the call's span. The center closes CJSP sessions on a
// fresh context after the query's last round, so a close carries no
// trace; it is linked to its request through the session ID the rounds
// carried.
func (p *tracedPeer) Call(ctx context.Context, method string, req, resp any) error {
	tr, owner := traceOf(ctx), traceOf(ctx)
	p.r.mu.Lock()
	switch r := req.(type) {
	case *federation.CoverageRoundRequest:
		p.r.sessions[r.Session] = tr
	case *federation.SessionCloseRequest:
		if owner.IsZero() {
			owner = p.r.sessions[r.Session]
		}
	}
	p.r.mu.Unlock()
	start := p.r.now()
	err := p.inner.Call(ctx, method, req, resp)
	s := span{kind: kindPeer, trace: tr, req: owner, source: p.source, name: method, iv: interval{start, p.r.now()}}
	if o, ok := resp.(*federation.OverlapResponse); ok && err == nil {
		s.useful = len(o.Results) > 0
	}
	p.r.add(s)
	return err
}

func (p *tracedPeer) Close() error { return p.inner.Close() }

func (r *recorder) wrapSource(source string, h transport.Handler) transport.Handler {
	return func(ctx context.Context, codec transport.Codec, method string, body []byte) (any, error) {
		start := r.now()
		ret, err := h(ctx, codec, method, body)
		r.add(span{kind: kindSource, trace: traceOf(ctx), source: source, name: method, iv: interval{start, r.now()}})
		return ret, err
	}
}

// rpc is one center→source call with the source's handler time inside it.
type rpc struct {
	peer span
	busy time.Duration // source handler time; 0 when unmatched
}

// pairRPCs matches every peer span with the source span it caused: same
// trace as carried, source and method, and inside the peer's interval.
// Calls carried without a trace (the center's session closes) match on
// source, method and containment alone.
func pairRPCs(spans []span) []rpc {
	type key struct {
		trace  obs.TraceID
		source string
		method string
	}
	bySrc := make(map[key][]span)
	for _, s := range spans {
		if s.kind == kindSource {
			k := key{s.trace, s.source, s.name}
			bySrc[k] = append(bySrc[k], s)
		}
	}
	var out []rpc
	for _, p := range spans {
		if p.kind != kindPeer {
			continue
		}
		k := key{p.trace, p.source, p.name}
		cands := bySrc[k]
		r := rpc{peer: p}
		for i, s := range cands {
			if s.iv.start >= p.iv.start && s.iv.end <= p.iv.end {
				r.busy = s.iv.end - s.iv.start
				bySrc[k] = slices.Delete(cands, i, i+1)
				break
			}
		}
		out = append(out, r)
	}
	return out
}

// opOfMethod maps a source protocol method to the operation that issues it.
func opOfMethod(method string) (opKind, bool) {
	switch {
	case method == federation.MethodOverlap:
		return opOJSP, true
	case method == federation.MethodSearchBatch:
		return opBatch, true
	case strings.HasPrefix(method, "coverage."):
		return opCJSP, true
	case strings.HasPrefix(method, "dataset."):
		return opIngest, true
	}
	return 0, false
}

// layerMethods are the source methods the per-layer table reports.
var layerMethods = []string{
	federation.MethodOverlap,
	federation.MethodSearchBatch,
	federation.MethodCoverageRound,
	federation.MethodFetchCells,
	federation.MethodSessionClose,
	federation.MethodDatasetPut,
	federation.MethodDatasetDelete,
}

// breakdown is one request's latency split into layers. The parts add up
// to the client's time except for gap: RPC time off the critical path
// that still lies outside every critical-path call.
type breakdown struct {
	client   time.Duration // client send → response read
	wait     time.Duration // client time outside the gateway handler
	self     time.Duration // handler time outside every RPC
	overhead time.Duration // critical-path RPC time outside the source handlers
	busy     time.Duration // critical-path source handler time
	gap      time.Duration // client − (wait + self + overhead + busy)
}

// splitLayers attributes one traced request's client time to layers.
func splitLayers(client time.Duration, gw interval, rpcs []rpc) breakdown {
	b := breakdown{client: client, wait: client - (gw.end - gw.start)}
	ivs := make([]interval, len(rpcs))
	for i, r := range rpcs {
		ivs[i] = r.peer.iv
	}
	b.self = selfTime(gw, ivs)
	for _, i := range criticalPath(ivs) {
		d := ivs[i].end - ivs[i].start
		b.busy += rpcs[i].busy
		b.overhead += d - rpcs[i].busy
	}
	b.gap = client - b.wait - b.self - b.overhead - b.busy
	return b
}
