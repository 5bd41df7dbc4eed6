package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"dits/internal/cellset"
	"dits/internal/dataset"
	"dits/internal/geo"
)

// opKind is a user-visible operation: each has its own latency figures,
// so a mixed workload never hides which operation produced a number.
type opKind uint8

const (
	opOJSP opKind = iota
	opCJSP
	opBatch
	opIngest
	numOps
)

var opNames = [numOps]string{"ojsp", "cjsp", "batch", "ingest"}

func (o opKind) String() string { return opNames[o] }

// query is one search derived from a dataset sampled from a source (the
// paper's query model), shifted by a seeded offset and sent as raw points.
// The shifted points are produced while encoding, so a long query list
// costs no more memory than the corpus.
type query struct {
	d      *dataset.Dataset
	dx, dy float64
	k      int
	// ojsp, when set, is the query's OJSP body, encoded before the timed
	// window: the mixed workload repeats its queries, and a client sends
	// a repeated request as is rather than encoding it anew.
	ojsp []byte
}

// point returns the i-th shifted point, clamped to the world bounds.
func (q *query) point(i int) (x, y float64) {
	p := q.d.Points[i]
	return min(max(p.X+q.dx, worldBounds.MinX), worldBounds.MaxX),
		min(max(p.Y+q.dy, worldBounds.MinY), worldBounds.MaxY)
}

// cells grids the query exactly as the gateway grids its points.
func (q *query) cells(g geo.Grid) cellset.Set {
	pts := make([]geo.Point, len(q.d.Points))
	for i := range pts {
		pts[i].X, pts[i].Y = q.point(i)
	}
	return cellset.FromPoints(g, pts)
}

// mutation is one step of the ingest trace against the mutable source.
type mutation struct {
	del  bool
	id   int
	name string
	pts  [][2]float64
	// prev is the previous mutation of the same dataset ID: it must be
	// acknowledged before this one is sent, so concurrent clients never
	// reorder a trace that is only applicable in order.
	prev  *mutation
	acked chan struct{}
}

// item is one request a client sends.
type item struct {
	op    opKind
	q     *query
	batch []*query
	mut   *mutation
}

const (
	ojspK      = 10
	cjspDelta  = 10
	cjspMaxK   = 10
	batchSize  = 4
	hotSetSize = 128
	zipfS      = 1.1
	zipfRound  = 1000 // reads per dealt round of the Zipf deck
	// hotSeed fixes which queries are popular, as corpusSeed fixes the
	// corpus: --seed varies the request sequence over them. With the
	// Zipf skew, the top few queries carry much of the traffic, so a
	// seeded hot set would make every figure depend on which datasets
	// happened to rank first.
	hotSeed = 7
	// hotTransitShare of the mixed workload's hot set is sampled from
	// the mutable source, so writes invalidate part of the cached reads.
	hotTransitShare = 0.25
)

// generator derives every input of a run from the workload seed; the
// corpus itself is fixed, so set-up does the same work under every seed.
type generator struct {
	rng    *rand.Rand
	grid   geo.Grid
	srcs   []*dataset.Source
	all    []*dataset.Dataset   // every dataset of every source
	seen   map[uint64]bool      // cell-set hashes already issued
	live   []int                // live dataset IDs of the mutable source
	points map[int][][2]float64 // their current points
	last   map[int]*mutation    // last mutation per ID
	nextID int
	bounds geo.Rect // the mutable source's extent
	// templates deals the mutable source's datasets as the points that
	// inserts copy, so each is copied about equally often.
	templates *deck[[][2]float64]
}

func newGenerator(srcs []*dataset.Source, seed int64) *generator {
	g := &generator{
		rng:    rand.New(rand.NewSource(seed)),
		grid:   geo.NewGrid(theta, worldBounds),
		srcs:   srcs,
		seen:   make(map[uint64]bool),
		points: make(map[int][][2]float64),
		last:   make(map[int]*mutation),
	}
	for _, s := range srcs {
		g.all = append(g.all, s.Datasets...)
		if s.Name == mutableSource {
			g.bounds = s.Bounds()
			for _, d := range s.Datasets {
				g.live = append(g.live, d.ID)
				g.points[d.ID] = toPairs(d.Points)
				g.nextID = max(g.nextID, d.ID+1)
			}
		}
	}
	var base [][][2]float64
	for _, id := range g.live {
		base = append(base, g.points[id])
	}
	g.templates = shuffled(g.rng, base)
	// Fresh IDs stay clear of the corpus's.
	g.nextID += 1 << 20
	return g
}

func toPairs(pts []geo.Point) [][2]float64 {
	out := make([][2]float64, len(pts))
	for i, p := range pts {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

func cellHash(cells cellset.Set) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cells {
		binary.LittleEndian.PutUint64(b[:], c)
		h.Write(b[:])
	}
	return h.Sum64()
}

// deck deals items in rounds: every round is dealt in full before the
// next is drawn, so the mix of a run's requests barely depends on the
// seed.
type deck[T any] struct {
	round func() []T // draws the next round, in dealing order
	cur   []T
}

func (d *deck[T]) next() T {
	if len(d.cur) == 0 {
		d.cur = d.round()
	}
	v := d.cur[0]
	d.cur = d.cur[1:]
	return v
}

// shuffled deals every item once per round, in a seeded order.
func shuffled[T any](rng *rand.Rand, items []T) *deck[T] {
	return &deck[T]{round: func() []T {
		out := slices.Clone(items)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}}
}

// uniqueQuery shifts the next dealt dataset by up to one grid cell in each
// axis, retrying until its gridded cell set differs from every earlier
// query of this generator, so the result cache can never answer it.
func (g *generator) uniqueQuery(from *deck[*dataset.Dataset], k int) *query {
	cw := (worldBounds.MaxX - worldBounds.MinX) / float64(int(1)<<theta)
	ch := (worldBounds.MaxY - worldBounds.MinY) / float64(int(1)<<theta)
	for {
		q := &query{d: from.next(), k: k}
		q.dx, q.dy = (g.rng.Float64()*2-1)*cw, (g.rng.Float64()*2-1)*ch
		cells := q.cells(g.grid)
		h := cellHash(cells)
		if cells.IsEmpty() || g.seen[h] {
			continue
		}
		g.seen[h] = true
		return q
	}
}

func (g *generator) ojspList(n int) []item {
	ds := shuffled(g.rng, g.all)
	out := make([]item, n)
	for i := range out {
		out[i] = item{op: opOJSP, q: g.uniqueQuery(ds, ojspK)}
	}
	return out
}

// cjspList deals CJSP queries in rounds that hold the same datasets and
// k under every seed; the seed orders each round and shifts its queries.
//
// A run completes only ~200 CJSP queries, fewer than there are datasets,
// and a query's cost spans two orders of magnitude with its dataset's
// size and k; drawn at random, the figures would depend on which few
// large queries a run happens to complete. So datasets are ordered by
// size and cut into strata of ten, and round r takes from stratum s the
// member (7r+s) mod 10 with k = 1 + (s+3r) mod 10: every round spans the
// corpus's sizes and every k, and the rounds a run completes are the
// same whatever the seed.
func (g *generator) cjspList(n int) []item {
	sorted := slices.Clone(g.all)
	slices.SortStableFunc(sorted, func(a, b *dataset.Dataset) int { return len(a.Points) - len(b.Points) })
	type pick struct {
		d *dataset.Dataset
		k int
	}
	r := 0
	picks := &deck[pick]{round: func() []pick {
		var out []pick
		for s, i := 0, 0; i < len(sorted); s, i = s+1, i+10 {
			stratum := sorted[i:min(i+10, len(sorted))]
			out = append(out, pick{stratum[(7*r+s)%len(stratum)], 1 + (s+3*r)%cjspMaxK})
		}
		r++
		g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}}
	out := make([]item, n)
	for i := range out {
		p := picks.next()
		out[i] = item{op: opCJSP, q: g.uniqueQuery(&deck[*dataset.Dataset]{round: func() []*dataset.Dataset { return []*dataset.Dataset{p.d} }}, p.k)}
	}
	return out
}

// hotSet is the mixed workload's small set of repeated reads, in
// popularity order; a share of it is sampled from the mutable source.
func (g *generator) hotSet() []*query {
	var transit []*dataset.Dataset
	for _, s := range g.srcs {
		if s.Name == mutableSource {
			transit = s.Datasets
		}
	}
	all, tr := shuffled(g.rng, g.all), shuffled(g.rng, transit)
	nt := int(hotSetSize * hotTransitShare)
	out := make([]*query, 0, hotSetSize)
	for i := 0; i < hotSetSize; i++ {
		from := all
		if i < nt {
			from = tr
		}
		out = append(out, g.uniqueQuery(from, ojspK))
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for _, q := range out {
		q.ojsp = appendQuery(nil, q, -1)
	}
	return out
}

// mixedShares deals the read/write mix, twenty requests a round: OJSP
// 65%, batch 15%, ingest 20%.
var mixedShares = map[opKind]int{opOJSP: 13, opBatch: 3, opIngest: 4}

// zipfDeck deals ranks 0..n-1 with P(i) ∝ (i+1)^-zipfS in rounds of
// about zipfRound: each round holds every rank its expected number of
// times, in a seeded order. Drawn independently instead, which few large
// queries happen to be read between two writes to Transit moves
// `mixed-rw`'s bytes per op by a sixth from seed to seed.
func zipfDeck(rng *rand.Rand, n int) *deck[int] {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -zipfS)
		sum += w[i]
	}
	var slots []int
	for i, x := range w {
		for range max(1, int(math.Round(zipfRound*x/sum))) {
			slots = append(slots, i)
		}
	}
	return shuffled(rng, slots)
}

// mixedList deals n requests of the read/write mix, with reads
// Zipf-skewed over the hot set.
func (g *generator) mixedList(hot []*query, n int) []item {
	zipf := zipfDeck(g.rng, len(hot))
	var slots []opKind
	for _, op := range []opKind{opOJSP, opBatch, opIngest} {
		for range mixedShares[op] {
			slots = append(slots, op)
		}
	}
	ops := shuffled(g.rng, slots)
	out := make([]item, n)
	for i := range out {
		switch ops.next() {
		case opOJSP:
			out[i] = item{op: opOJSP, q: hot[zipf.next()]}
		case opBatch:
			b := make([]*query, batchSize)
			for j := range b {
				b[j] = hot[zipf.next()]
			}
			out[i] = item{op: opBatch, batch: b}
		default:
			out[i] = item{op: opIngest, mut: g.mutation()}
		}
	}
	return out
}

// mutation draws the next step of an always-applicable trace against the
// mutable source: 55% inserts of fresh IDs (jittered copies of the
// source's datasets, so they land where it has data), 25% updates of a
// live ID, 20% deletes of a live ID.
func (g *generator) mutation() *mutation {
	m := &mutation{acked: make(chan struct{})}
	switch r := g.rng.Float64(); {
	case r < 0.55:
		m.id = g.nextID
		g.nextID++
		m.name = "ingest-" + strconv.Itoa(m.id)
		m.pts = g.jitter(g.templates.next())
		g.live = append(g.live, m.id)
		g.points[m.id] = m.pts
	case r < 0.80:
		m.id = g.live[g.rng.Intn(len(g.live))]
		m.name = fmt.Sprintf("update-%d", m.id)
		m.pts = g.jitter(g.points[m.id])
		g.points[m.id] = m.pts
	default:
		j := g.rng.Intn(len(g.live))
		m.id, m.del = g.live[j], true
		g.live = slices.Delete(g.live, j, j+1)
		delete(g.points, m.id)
	}
	m.prev = g.last[m.id]
	g.last[m.id] = m
	return m
}

func (g *generator) jitter(base [][2]float64) [][2]float64 {
	b := g.bounds
	sx, sy := (b.MaxX-b.MinX)/200, (b.MaxY-b.MinY)/200
	out := make([][2]float64, len(base))
	for i, p := range base {
		out[i] = [2]float64{
			min(max(p[0]+g.rng.NormFloat64()*sx, b.MinX), b.MaxX),
			min(max(p[1]+g.rng.NormFloat64()*sy, b.MinY), b.MaxY),
		}
	}
	return out
}
