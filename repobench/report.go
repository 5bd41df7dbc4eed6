package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"dits/internal/obs"
)

// namedTail is each operation's named latency percentile.
var namedTail = [numOps]float64{opOJSP: 0.99, opCJSP: 0.90, opBatch: 0.95, opIngest: 0.99}

// sumTolerancePct is how far, in percent of the mean client time, the
// per-op layer sum may miss it before a traced run is marked incorrect.
const sumTolerancePct = 15

// latencies returns the sorted latencies of one operation's answered
// requests.
func latencies(samples []sample, op opKind) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.op == op && s.ok() {
			out = append(out, s.latency())
		}
	}
	slices.Sort(out)
	return out
}

// headline is the sample set the end-to-end latency figures describe: the
// open-loop phase when the workload has one, else the closed loop.
func (p *passResult) headline() []sample {
	if p.spec.openRate > 0 {
		return p.open
	}
	return p.closed
}

// lateLimit is the most the pacer's p99 lateness may reach before a run
// is invalid. The pacer shares the process's CPUs with the stack, so it
// is released a few milliseconds late when both are busy (Go preempts a
// running goroutine after 10 ms); latency runs from the due time, so that
// is charged, not hidden. A p99 beyond a tenth of a second means the
// pacer stood still for a dozen arrivals and then released them at once:
// the load was burstier than the schedule claims.
const lateLimit = 100 * time.Millisecond

// lateP99ms is the p99 of how far behind schedule the pacer released
// open-loop requests; a late generator means the run offered less load,
// or burstier load, than it claims.
func (p *passResult) lateP99ms() float64 {
	if len(p.open) == 0 {
		return 0
	}
	return ms(percentile(lateness(p.open), 0.99))
}

// opsDone counts the answered requests of the measured phases per op.
func (p *passResult) opsDone() (n [numOps]int, total int) {
	for _, ss := range [][]sample{p.open, p.closed} {
		for _, s := range ss {
			if s.ok() {
				n[s.op]++
				total++
			}
		}
	}
	return n, total
}

// methodDelta is the per-method traffic of the measured phases.
func (p *passResult) methodDelta(method string) (calls, bytes int64) {
	a, b := p.after.methods[method], p.before.methods[method]
	return a.Calls - b.Calls, a.BytesSent + a.BytesReceived - b.BytesSent - b.BytesReceived
}

// endToEnd computes the gated metrics plus a per-op detail table. It
// fails when the headline operation's samples leave fewer than minBeyond
// above its tail percentile: such a tail is not measured.
func (p *passResult) endToEnd(spec workloadSpec) (map[string]metric, error) {
	out := make(map[string]metric)
	out["setup_s"] = metric{median(p.setup), "s"}
	out["heap_mb"] = metric{p.heapMB, "MiB"}
	lat := latencies(p.headline(), spec.headline)
	if b := beyond(len(lat), spec.tail); b < minBeyond {
		return nil, fmt.Errorf("%d %s samples leave %d beyond p%g, need %d", len(lat), spec.headline, b, spec.tail*100, minBeyond)
	}
	out["p50_ms"] = metric{ms(percentile(lat, 0.5)), "ms"}
	out["tail_ms"] = metric{ms(percentile(lat, spec.tail)), "ms"}
	var bytes int64
	for m := range p.after.methods {
		_, b := p.methodDelta(m)
		bytes += b
	}
	perOp, total := p.opsDone()
	out["bytes_per_op"] = metric{float64(bytes) / float64(max(total, 1)), "B"}

	// Detail, not gated: the closed loop's throughput, which saturates
	// both CPUs and so spreads with the host's load, and every op's own
	// figures, so a mixed workload never hides which operation produced a
	// number.
	if p.closedElapsed > 0 {
		var closedOK int
		for _, s := range p.closed {
			if s.ok() {
				closedOK++
			}
		}
		out["qps"] = metric{float64(closedOK) / p.closedElapsed.Seconds(), "1/s"}
	}
	out["samples"] = metric{float64(len(lat)), "count"}
	out["failed_frac"] = metric{p.tally.frac(), "1"}
	for op := range numOps {
		for phase, ss := range map[string][]sample{"open": p.open, "closed": p.closed} {
			l := latencies(ss, op)
			if len(l) == 0 {
				continue
			}
			pre := phase + "." + op.String()
			out[pre+".n"] = metric{float64(len(l)), "count"}
			out[pre+".p50_ms"] = metric{ms(percentile(l, 0.5)), "ms"}
			if q := tailPercentile(len(l), namedTail[op]); q > 0.5 {
				out[pre+fmt.Sprintf(".p%g_ms", q*100)] = metric{ms(percentile(l, q)), "ms"}
			}
		}
		if perOp[op] > 0 {
			var b int64
			for m := range p.after.methods {
				if o, ok := opOfMethod(m); ok && o == op {
					_, mb := p.methodDelta(m)
					b += mb
				}
			}
			out[op.String()+".bytes_per_query"] = metric{float64(b) / float64(perOp[op]), "B"}
		}
	}
	return out, nil
}

// perLayer computes the traced run's per-layer table. Every name is
// reported on every workload; a layer the workload does not exercise
// reads 0. The bool reports whether every op's layers add up to its
// client time within sumTolerancePct.
func (p *passResult) perLayer(spec workloadSpec, plain *passResult) (map[string]metric, bool) {
	out := make(map[string]metric)
	gw := make(map[obs.TraceID]span)
	var sourceSpans []span
	for _, s := range p.spans {
		switch s.kind {
		case kindGateway:
			gw[s.trace] = s
		case kindSource:
			sourceSpans = append(sourceSpans, s)
		}
	}
	rpcs := pairRPCs(p.spans)
	byTrace := make(map[obs.TraceID][]rpc)
	for _, r := range rpcs {
		if !r.peer.req.IsZero() {
			byTrace[r.peer.req] = append(byTrace[r.peer.req], r)
		}
	}

	// Layer split per op, averaged so the parts add up.
	var sum [numOps]breakdown
	var n [numOps]int
	var unlinked int
	for _, ss := range [][]sample{p.open, p.closed} {
		for _, s := range ss {
			if !s.ok() {
				continue
			}
			g, ok := gw[s.trace]
			if !ok {
				unlinked++
				continue
			}
			b := splitLayers(s.service(), g.iv, byTrace[s.trace])
			a := &sum[s.op]
			a.client += b.client
			a.wait += b.wait
			a.self += b.self
			a.overhead += b.overhead
			a.busy += b.busy
			a.gap += b.gap
			n[s.op]++
		}
	}
	sumOK := true
	for op := range numOps {
		name := op.String()
		k := time.Duration(max(n[op], 1))
		a := sum[op]
		out["client."+name+".service_us"] = metric{us(a.client / k), "us"}
		out["http."+name+".wait_us"] = metric{us(a.wait / k), "us"}
		out["gateway."+name+".self_us"] = metric{us(a.self / k), "us"}
		out["rpc."+name+".overhead_us"] = metric{us(a.overhead / k), "us"}
		out["rpc."+name+".busy_us"] = metric{us(a.busy / k), "us"}
		gap := 0.0
		if a.client > 0 {
			gap = 100 * float64(a.gap) / float64(a.client)
		}
		out["layers."+name+".gap_pct"] = metric{gap, "%"}
		if n[op] > 0 && (gap > sumTolerancePct || gap < -sumTolerancePct) {
			sumOK = false
		}
	}
	// The split only means something if every answered request found its
	// gateway span and every RPC its source span and its request.
	var unmatched int
	for _, r := range rpcs {
		if r.busy == 0 || r.peer.req.IsZero() {
			unmatched++
		}
	}
	out["trace.unlinked_requests"] = metric{float64(unlinked), "count"}
	out["trace.unmatched_rpcs"] = metric{float64(unmatched), "count"}
	sumOK = sumOK && unlinked == 0 && unmatched == 0

	perOp, total := p.opsDone()
	ops := max(total, 1)

	// Cache.
	hits := p.after.cache.Hits - p.before.cache.Hits
	misses := p.after.cache.Misses - p.before.cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	out["cache.hit_ratio"] = metric{ratio, "1"}
	out["cache.evictions"] = metric{float64(p.after.cache.Evictions - p.before.cache.Evictions), "count"}

	// Federation fan-out, from the program's own per-method counters.
	var rpcsOf [numOps]int64
	for m := range p.after.methods {
		if op, ok := opOfMethod(m); ok {
			c, _ := p.methodDelta(m)
			rpcsOf[op] += c
		}
	}
	for op := range numOps {
		v := 0.0
		if perOp[op] > 0 {
			v = float64(rpcsOf[op]) / float64(perOp[op])
		}
		out["federation."+op.String()+".rpcs_per_query"] = metric{v, "count"}
	}
	var overlapCalls, useful int
	waves := make(map[obs.TraceID][]interval)
	for _, r := range rpcs {
		switch r.peer.name {
		case "overlap.search":
			overlapCalls++
			if r.peer.useful {
				useful++
			}
		case "coverage.round":
			waves[r.peer.trace] = append(waves[r.peer.trace], r.peer.iv)
		}
	}
	out["federation.ojsp.useful_rpc_ratio"] = metric{frac(useful, overlapCalls), "1"}
	var rounds int
	for _, ivs := range waves {
		rounds += countWaves(ivs)
	}
	out["federation.cjsp.rounds_per_query"] = metric{frac(rounds, perOp[opCJSP]), "count"}

	// Transport and source, per method.
	for _, m := range layerMethods {
		var over time.Duration
		var matched int
		for _, r := range rpcs {
			if r.peer.name == m && r.busy > 0 {
				over += r.peer.iv.end - r.peer.iv.start - r.busy
				matched++
			}
		}
		out["transport."+m+".overhead_us"] = metric{us(over / time.Duration(max(matched, 1))), "us"}
		calls, bytes := p.methodDelta(m)
		out["transport."+m+".bytes_per_call"] = metric{frac(int(bytes), int(calls)), "B"}
		var busy []time.Duration
		var total time.Duration
		for _, s := range sourceSpans {
			if s.name == m {
				busy = append(busy, s.iv.end-s.iv.start)
				total += s.iv.end - s.iv.start
			}
		}
		slices.Sort(busy)
		op, _ := opOfMethod(m)
		out["source."+m+".busy_us"] = metric{us(percentile(busy, 0.5)), "us"}
		out["source."+m+".busy_us_per_query"] = metric{frac(int(us(total)), perOp[op]), "us"}
		out["source."+m+".calls"] = metric{float64(len(busy)), "count"}
	}
	out["transport.pool.dials"] = metric{float64(p.after.dials - p.before.dials), "count"}
	out["transport.pool.discards"] = metric{float64(p.after.discards - p.before.discards), "count"}
	out["transport.failures"] = metric{float64(p.after.failures - p.before.failures), "count"}

	// Ingest. The WAL restarts at each snapshot, so its bytes per record
	// are read from the current tail.
	out["ingest.wal_bytes_per_mutation"] = metric{frac(int(p.after.store.WALBytes), p.after.store.SinceSnapshot), "B"}
	out["ingest.snapshots"] = metric{float64(p.after.store.Snapshots - p.before.store.Snapshots), "count"}

	// Go runtime, for the whole process (clients included).
	out["runtime.allocs_per_op"] = metric{float64(p.after.allocObjs-p.before.allocObjs) / float64(ops), "count"}
	out["runtime.alloc_bytes_per_op"] = metric{float64(p.after.allocBytes-p.before.allocBytes) / float64(ops), "B"}
	out["runtime.gc_cycles"] = metric{float64(p.after.gcCycles - p.before.gcCycles), "count"}
	out["runtime.gc_pause_ms"] = metric{ms(time.Duration(p.after.pauseNs - p.before.pauseNs)), "ms"}

	// Generator validity and the benchmark's own tracing overhead.
	out["load.late_ms"] = metric{p.lateP99ms(), "ms"}
	tl := latencies(p.headline(), spec.headline)
	ul := latencies(plain.headline(), spec.headline)
	out["trace.overhead_ms"] = metric{ms(percentile(tl, 0.5) - percentile(ul, 0.5)), "ms"}
	return out, sumOK
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// countWaves counts groups of overlapping intervals: the parallel
// coverage.round calls of one greedy round form one wave.
func countWaves(ivs []interval) int {
	slices.SortFunc(ivs, func(a, b interval) int { return int(a.start - b.start) })
	waves := 0
	var end time.Duration
	for i, iv := range ivs {
		if i == 0 || iv.start >= end {
			waves++
			end = iv.end
		} else {
			end = max(end, iv.end)
		}
	}
	return waves
}

// printLayers writes the traced run's table to standard error, one op per
// row, in the order the layers are crossed.
func printLayers(spec workloadSpec, m map[string]metric) {
	w := os.Stderr
	fmt.Fprintf(w, "per-op layer split, %s (mean µs per answered request):\n", spec.name)
	fmt.Fprintf(w, "%-7s %10s %10s %10s %10s %10s %8s\n", "op", "client", "http.wait", "gw.self", "rpc.ovh", "src.busy", "gap%")
	for op := range numOps {
		name := op.String()
		if m["client."+name+".service_us"].Value == 0 {
			continue
		}
		fmt.Fprintf(w, "%-7s %10.1f %10.1f %10.1f %10.1f %10.1f %8.2f\n", name,
			m["client."+name+".service_us"].Value, m["http."+name+".wait_us"].Value,
			m["gateway."+name+".self_us"].Value, m["rpc."+name+".overhead_us"].Value,
			m["rpc."+name+".busy_us"].Value, m["layers."+name+".gap_pct"].Value)
	}
	for _, k := range slices.Sorted(maps.Keys(m)) {
		if v := m[k]; v.Value != 0 && !strings.HasPrefix(k, "layers.") {
			fmt.Fprintf(w, "  %-44s %14.3f %s\n", k, v.Value, v.Unit)
		}
	}
}

// sourceDigest hashes the Go sources and module files under the working
// directory, identifying the code when no commit is at hand.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
