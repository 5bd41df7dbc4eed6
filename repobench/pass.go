package main

import (
	"context"
	"maps"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"dits/internal/cache"
	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/transport"
)

// inputs are every request of one pass, derived from the seed alone.
type inputs struct {
	warm, open, closed []item
	hot                []*query // mixed-rw: the repeated reads
}

// openWindow and closedWindow split the measured time between the phases:
// with both, two thirds to the open loop, whose tail needs the samples,
// and the rest to the closed loop, whose throughput settles sooner.
func (w workloadSpec) openWindow(dur time.Duration) time.Duration {
	switch {
	case w.openRate == 0:
		return 0
	case w.closedPerSec == 0:
		return dur
	}
	return dur * 2 / 3
}

func (w workloadSpec) closedWindow(dur time.Duration) time.Duration {
	return dur - w.openWindow(dur)
}

// minClosed is how many requests a closed phase that carries the headline
// must send: enough to leave minBeyond samples above the tail percentile,
// and a fifth more.
func (w workloadSpec) minClosed() int {
	if w.openRate > 0 {
		return 0
	}
	return int(math.Ceil(minBeyond/(1-w.tail))) * 6 / 5
}

func makeInputs(spec workloadSpec, srcs []*dataset.Source, seed int64, dur time.Duration) inputs {
	g := newGenerator(srcs, seed)
	nOpen := int(spec.openRate * spec.openWindow(dur).Seconds())
	nClosed := int(spec.closedPerSec * spec.closedWindow(dur).Seconds())
	var in inputs
	switch spec.name {
	case "ojsp-open":
		in.warm, in.open, in.closed = g.ojspList(200), g.ojspList(nOpen), g.ojspList(nClosed)
	case "cjsp-closed":
		in.warm, in.closed = g.cjspList(4), g.cjspList(nClosed)
	case "mixed-rw":
		// Warm-up reads every hot query once: the cache starts in the
		// steady state the Zipf reads keep it in.
		in.hot = newGenerator(srcs, hotSeed).hotSet()
		for _, q := range in.hot {
			in.warm = append(in.warm, item{op: opOJSP, q: q})
		}
		in.open, in.closed = g.mixedList(in.hot, nOpen), g.mixedList(in.hot, nClosed)
	}
	return in
}

// counters are the program's own cumulative counters, read before and
// after the measured phases.
type counters struct {
	cache      cache.Stats
	methods    map[string]transport.MethodStats
	failures   int64
	dials      int64
	discards   int64
	store      ingest.Stats
	allocObjs  uint64
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readCounters(st *stack) counters {
	c := counters{
		cache:    st.cache.Stats(),
		methods:  st.center.Metrics.PerMethod(),
		failures: st.center.Metrics.TotalFailures(),
		store:    st.store.Stats(),
	}
	for _, p := range st.pools {
		ps := p.Stats()
		c.dials += ps.Dials
		c.discards += ps.Discards
	}
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	c.allocObjs, c.allocBytes, c.gcCycles = s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.pauseNs = m.PauseTotalNs
	return c
}

// passResult is everything one pass over the workload measured.
type passResult struct {
	spec          workloadSpec
	setup         []float64 // seconds per stand-up
	heapMB        float64
	open, closed  []sample
	closedElapsed time.Duration
	openList      int // requests the open phase sends
	closedList    int // length of the list the closed phase drains
	before, after counters
	tally         tally
	spans         []span
}

// standUp builds the stack and waits for its first 200, returning the
// time that took.
func standUp(srcs []*dataset.Source, dir string, rec *recorder) (*stack, *client, float64, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := buildStack(srcs, dir, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	cl := newClient(st.url, clients())
	if err := waitReady(cl.http, st.url); err != nil {
		cl.close()
		st.close()
		return nil, nil, 0, err
	}
	return st, cl, time.Since(t0).Seconds(), nil
}

// timeSetups stands the stack up n more times, closing each, and adds the
// times to the pass's set-up samples. A run calls it after its measured
// pass, so the samples span the run rather than its first second: a
// moment of contention on the host then moves one sample, not the median.
func (p *passResult) timeSetups(srcs []*dataset.Source, dir string, n int) error {
	for range n {
		st, cl, d, err := standUp(srcs, dir, nil)
		if err != nil {
			return err
		}
		cl.close()
		st.close()
		p.setup = append(p.setup, d)
	}
	return nil
}

// runPass stands the stack up, warms it, runs the open and closed phases,
// and checks every answer. rec non-nil installs the span wrappers.
func runPass(spec workloadSpec, srcs []*dataset.Source, seed int64, dur time.Duration, dir string, rec *recorder) (*passResult, error) {
	p := &passResult{spec: spec}
	st, cl, d, err := standUp(srcs, dir, rec)
	if err != nil {
		return nil, err
	}
	p.setup = append(p.setup, d)
	defer st.close()
	defer cl.close()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heapMB = float64(m.HeapAlloc) / (1 << 20)
	// The inputs are generated after the heap is read, so heap_mb is the
	// stack's (and the corpus's), not the size of the request lists.
	in := makeInputs(spec, srcs, seed, dur)
	p.openList, p.closedList = len(in.open), len(in.closed)

	warm, _ := runClosed(cl, in.warm, clients(), time.Hour, 0)
	for _, s := range warm {
		p.tally.add(s.ok(), true)
	}
	if rec != nil {
		rec.reset()
	}
	p.before = readCounters(st)
	if spec.openRate > 0 {
		p.open = runOpen(cl, in.open, spec.openRate, clients())
	}
	if spec.closedPerSec > 0 {
		p.closed, p.closedElapsed = runClosed(cl, in.closed, spec.closedClientCount(), spec.closedWindow(dur), spec.minClosed())
	}
	p.after = readCounters(st)
	if rec != nil {
		p.spans = rec.snapshot()
	}
	if spec.name == "mixed-rw" {
		return p, p.checkMixed(st, cl, in)
	}
	return p, p.checkSearches(st, in)
}

// checkSearches compares every answer of the timed phases with an
// in-process oracle center over the same indexes.
func (p *passResult) checkSearches(st *stack, in inputs) error {
	// No writes reach these workloads, so the mutable source's live index
	// is its whole state.
	indexes := maps.Clone(st.indexes)
	indexes[mutableSource] = st.store.Index()
	oracle, err := oracleCenter(st.grid, indexes)
	if err != nil {
		return err
	}
	type job struct {
		s  *sample
		it *item
	}
	var jobs []job
	for i := range p.open {
		jobs = append(jobs, job{&p.open[i], &in.open[p.open[i].idx]})
	}
	for i := range p.closed {
		jobs = append(jobs, job{&p.closed[i], &in.closed[p.closed[i].idx]})
	}
	correct := make([]bool, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int, len(jobs))
	for i := range jobs {
		next <- i
	}
	close(next)
	for range clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				if j.s.ok() {
					correct[i] = answerMatches(oracle, st.grid, j.it, j.s)
				}
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		p.tally.add(j.s.ok(), correct[i])
	}
	return nil
}

// answerMatches reports whether the gateway's answer to a search equals
// the oracle's.
func answerMatches(oracle *federation.Center, grid geo.Grid, it *item, s *sample) bool {
	ctx := context.Background()
	cells := it.q.cells(grid)
	switch it.op {
	case opOJSP:
		got, err := decodeAs[gateway.OverlapResponse](s)
		if err != nil {
			return false
		}
		want, err := oracle.OverlapSearch(ctx, cells, it.q.k)
		return err == nil && sameOverlap(got.Results, want)
	case opCJSP:
		got, err := decodeAs[gateway.CoverageResponse](s)
		if err != nil {
			return false
		}
		want, err := oracle.CoverageSearch(ctx, cells, cjspDelta, it.q.k)
		if err != nil || got.Coverage != want.Coverage || got.QueryCoverage != want.QueryCoverage ||
			len(got.Picked) != len(want.Picked) {
			return false
		}
		for i, w := range want.Picked {
			g := got.Picked[i]
			if g.Source != w.Source || g.ID != w.ID || g.Name != w.Name || g.Gain != w.Overlap {
				return false
			}
		}
		return true
	}
	return false
}

func sameOverlap(got []gateway.OverlapResult, want []federation.SourceResult) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g.Source != w.Source || g.ID != w.ID || g.Name != w.Name || g.Overlap != w.Overlap {
			return false
		}
	}
	return true
}

// checkMixed verifies the read/write workload after it has quiesced:
// every acknowledged upsert is readable with its last acknowledged cells
// and name, every acknowledged delete is gone, and a fixed probe set
// answers through the gateway exactly as an oracle rebuilt from the final
// corpus does. Reads during the run race the writes, so they count only
// as answered or not.
func (p *passResult) checkMixed(st *stack, cl *client, in inputs) error {
	for _, s := range p.open {
		p.tally.add(s.ok(), true)
	}
	for _, s := range p.closed {
		p.tally.add(s.ok(), true)
	}
	// The final state of each touched ID is its last issued mutation.
	final := make(map[int]*mutation)
	unknown := false
	note := func(items []item, samples []sample) {
		for _, s := range samples {
			if m := items[s.idx].mut; m != nil {
				final[m.id] = m
				unknown = unknown || !s.ok()
			}
		}
	}
	note(in.open, p.open)
	note(in.closed, p.closed)
	if unknown {
		return nil // a failed write already fails the run; its effect is unknowable
	}
	var violations int
	st.store.View(func(idx *dits.Local) {
		for id, m := range final {
			nd := idx.Get(id)
			switch {
			case m.del:
				if nd != nil {
					violations++
				}
			case nd == nil || nd.Name != m.name || !nd.FlatCells().Equal(pairCells(st.grid, m.pts)):
				violations++
			}
		}
	})
	p.tally.attempted += len(final)
	p.tally.failed += violations

	// Oracle over the final corpus: the four read-only indexes as they
	// are, the mutable source rebuilt from its base datasets and the
	// acknowledged mutations.
	var nodes []*dataset.Node
	var probes []*query
	for _, d := range st.base {
		if _, touched := final[d.ID]; !touched {
			nodes = append(nodes, dataset.NewNode(st.grid, d))
		}
	}
	byID := func(a, b *mutation) int { return a.id - b.id }
	for _, m := range slices.SortedFunc(maps.Values(final), byID) {
		if m.del {
			continue
		}
		nodes = append(nodes, dataset.NewNodeFromCells(m.id, m.name, pairCells(st.grid, m.pts)))
		if len(probes) < 32 {
			probes = append(probes, &query{d: pairDataset(m.pts), k: ojspK})
		}
	}
	indexes := maps.Clone(st.indexes)
	indexes[mutableSource] = dits.Build(st.grid, nodes, leafCap)
	oracle, err := oracleCenter(st.grid, indexes)
	if err != nil {
		return err
	}
	probes = append(probes, in.hot...)
	w := &worker{c: cl}
	for _, q := range probes {
		it := item{op: opOJSP, q: q}
		var s sample
		w.send(&it, &s, time.Now())
		p.tally.add(s.ok(), s.ok() && answerMatches(oracle, st.grid, &it, &s))
	}
	return nil
}

func pairCells(g geo.Grid, pts [][2]float64) cellset.Set {
	gp := make([]geo.Point, len(pts))
	for i, pt := range pts {
		gp[i] = geo.Point{X: pt[0], Y: pt[1]}
	}
	return cellset.FromPoints(g, gp)
}

func pairDataset(pts [][2]float64) *dataset.Dataset {
	d := &dataset.Dataset{Points: make([]geo.Point, len(pts))}
	for i, pt := range pts {
		d.Points[i] = geo.Point{X: pt[0], Y: pt[1]}
	}
	return d
}
