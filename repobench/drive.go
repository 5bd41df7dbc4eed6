package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dits/internal/obs"
)

// sample is the client's record of one request. Times are offsets from
// the start of the phase: due is when the schedule meant the request to
// go out, enq when the open loop's pacer handed it to the clients (both
// equal to sent in a closed loop), sent when a client began sending the
// already encoded request, done when the whole response had been read.
// enq − due is the generator's own lateness; sent − enq is the wait for a
// free client, which the system under test causes and the latency
// includes.
type sample struct {
	idx                  int
	op                   opKind
	due, enq, sent, done time.Duration
	status               int
	err                  error
	trace                obs.TraceID
	body                 []byte // response body, decoded after the timed window
}

// latency is the user-visible time of the request: from when it was due.
func (s *sample) latency() time.Duration { return s.done - s.due }

// service is the time one client spent on the request.
func (s *sample) service() time.Duration { return s.done - s.sent }

func (s *sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// client sends requests to the gateway over at most nproc keep-alive
// connections.
type client struct {
	url  string
	http *http.Client
}

func newClient(url string, conns int) *client {
	return &client{url: url, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// appendPoints encodes n points as the JSON array clients send; 'g' with
// precision -1 round-trips every float64 exactly.
func appendPoints(b []byte, n int, at func(int) (x, y float64)) []byte {
	b = append(b, '[')
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		x, y := at(i)
		b = append(b, '[')
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, y, 'g', -1, 64)
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendQuery encodes a search body; a negative delta is left out.
func appendQuery(b []byte, q *query, delta int) []byte {
	if delta < 0 && q.ojsp != nil {
		return append(b, q.ojsp...)
	}
	b = append(b, `{"points":`...)
	b = appendPoints(b, len(q.d.Points), q.point)
	if delta >= 0 {
		b = append(b, `,"delta":`...)
		b = strconv.AppendInt(b, int64(delta), 10)
	}
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(q.k), 10)
	return append(b, '}')
}

// request is an item encoded for the wire.
type request struct {
	method, url string
	body        []byte
}

// encode builds the request for an item, its body into buf.
func (c *client) encode(it *item, buf []byte) request {
	switch it.op {
	case opOJSP:
		return request{http.MethodPost, c.url + "/search/overlap", appendQuery(buf, it.q, -1)}
	case opCJSP:
		return request{http.MethodPost, c.url + "/search/coverage", appendQuery(buf, it.q, cjspDelta)}
	case opBatch:
		b := append(buf, `{"queries":[`...)
		for i, q := range it.batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQuery(b, q, -1)
		}
		return request{http.MethodPost, c.url + "/search/batch", append(b, "]}"...)}
	default:
		m := it.mut
		if m.del {
			return request{http.MethodDelete, fmt.Sprintf("%s/ingest/dataset?source=%s&id=%d", c.url, mutableSource, m.id), nil}
		}
		b := append(buf, `{"source":"`+mutableSource+`","id":`...)
		b = strconv.AppendInt(b, int64(m.id), 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, m.name)
		b = append(b, `,"points":`...)
		b = appendPoints(b, len(m.pts), func(i int) (float64, float64) { return m.pts[i][0], m.pts[i][1] })
		return request{http.MethodPost, c.url + "/ingest/dataset", append(b, '}')}
	}
}

// worker owns one connection's worth of reusable buffers.
type worker struct {
	c    *client
	req  []byte
	resp bytes.Buffer
}

// send encodes one item into the worker's buffer and sends it.
func (w *worker) send(it *item, s *sample, phase time.Time) {
	r := w.c.encode(it, w.req[:0])
	w.req = r.body
	w.do(it, r, s, phase)
}

// do sends one encoded item and fills in the sample's outcome and times.
func (w *worker) do(it *item, r request, s *sample, phase time.Time) {
	if it.mut != nil && it.mut.prev != nil {
		<-it.mut.prev.acked
	}
	s.sent = time.Since(phase)
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, r.url, rd)
	if err == nil {
		var resp *http.Response
		if resp, err = w.c.http.Do(req); err == nil {
			w.resp.Reset()
			_, err = w.resp.ReadFrom(resp.Body)
			resp.Body.Close()
			s.status = resp.StatusCode
			s.trace, _ = obs.ParseTraceID(resp.Header.Get("X-Dits-Trace-Id"))
		}
	}
	s.done = time.Since(phase)
	s.err = err
	s.body = append([]byte(nil), w.resp.Bytes()...)
	if it.mut != nil {
		close(it.mut.acked)
	}
}

// runOpen sends items at a fixed rate regardless of how fast answers
// come back, over `workers` clients. A request that finds its clients
// busy waits, and that wait counts in its latency: latency runs from the
// scheduled send time, so a stall is charged to every request it delays.
//
// When the schedule mixes OJSP reads with other operations (batches and
// writes), the two are sent by separate clients, as readers and writers
// are separate users: a read never queues behind a client held by a
// write's fsync, and it meets the writes only inside the system.
//
// The pacer encodes each request before it is due, as a client has its
// request ready before it sends it, so the latency is the system's, not
// the time this process spends writing JSON.
func runOpen(c *client, items []item, rate float64, workers int) []sample {
	out := make([]sample, len(items))
	reqs := make([]request, len(items))
	// Sent bodies' buffers go back to the pacer for reuse.
	free := make(chan []byte, 4*workers)
	// Buffered to the schedule length so the pacer never blocks behind
	// busy clients: enq − due is then the pacer's lateness alone.
	lanes := []chan int{make(chan int, len(items))}
	mixed := slices.ContainsFunc(items, func(it item) bool { return it.op != opOJSP })
	if mixed && workers >= 2 {
		lanes = append(lanes, make(chan int, len(items)))
	}
	laneOf := func(op opKind) chan int {
		if op == opOJSP {
			return lanes[0]
		}
		return lanes[len(lanes)-1]
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(ch chan int) {
			defer wg.Done()
			w := &worker{c: c}
			for i := range ch {
				w.do(&items[i], reqs[i], &out[i], start)
				select {
				case free <- reqs[i].body[:0]:
				default:
				}
				reqs[i] = request{}
			}
		}(lanes[i%len(lanes)])
	}
	for i := range items {
		var buf []byte
		select {
		case buf = <-free:
		default:
		}
		reqs[i] = c.encode(&items[i], buf)
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i] = sample{idx: i, op: items[i].op, due: due, enq: time.Since(start)}
		laneOf(items[i].op) <- i
	}
	for _, ch := range lanes {
		close(ch)
	}
	wg.Wait()
	return out
}

// runClosed has `workers` clients drain the list back to back, each
// sending its next request only when the previous one is answered, until
// the list ends or the time is up. A phase whose tail needs samples runs
// on past its time, up to three times it, until minSent requests have
// gone out, so a slow host cannot leave its tail unmeasured. It returns
// the completed samples and the elapsed time.
func runClosed(c *client, items []item, workers int, limit time.Duration, minSent int) ([]sample, time.Duration) {
	out := make([]sample, len(items))
	var next atomic.Int64
	start := time.Now()
	more := func() bool {
		t := time.Since(start)
		return t < limit || (next.Load() < int64(minSent) && t < 3*limit)
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{c: c}
			// The clock is checked before an index is claimed, so every
			// claimed item is sent: a mutation never waits on a
			// predecessor that was claimed and then dropped.
			for more() {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				out[i] = sample{idx: i, op: items[i].op}
				w.send(&items[i], &out[i], start)
				out[i].due, out[i].enq = out[i].sent, out[i].sent
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return out[:min(int(next.Load()), len(items))], elapsed
}

// decodeAs decodes a sample's JSON body.
func decodeAs[T any](s *sample) (T, error) {
	var v T
	err := json.Unmarshal(s.body, &v)
	return v, err
}
