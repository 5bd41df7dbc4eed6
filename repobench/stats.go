package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples a reported percentile must leave above it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted values.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailPercentile returns the named percentile when n samples leave at
// least minBeyond above it, and otherwise the highest of the fallbacks
// that does (0 when even the median does not).
func tailPercentile(n int, named float64) float64 {
	for _, p := range []float64{named, 0.99, 0.95, 0.9, 0.75, 0.5} {
		if p <= named && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// interval is a half-open span of time [start, end).
type interval struct{ start, end time.Duration }

// unionLen is the total length covered by the intervals, each clipped to
// [lo, hi): overlapping parallel children count once.
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	cl := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			cl = append(cl, interval{s, e})
		}
	}
	slices.SortFunc(cl, func(a, b interval) int { return int(a.start - b.start) })
	var total time.Duration
	var cur interval
	for i, iv := range cl {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(cl) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals within it.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end - parent.start - unionLen(children, parent.start, parent.end)
}

// criticalPath returns the indices of the chain of children that blocks
// the parent's end: the child that ends last, then the one that ends last
// before that child started, and so on. Parallel siblings off the chain
// are not on it: only the slowest of a fan-out wave delays the result.
func criticalPath(children []interval) []int {
	var path []int
	limit := time.Duration(math.MaxInt64)
	for {
		best := -1
		for i, c := range children {
			if c.end <= limit && (best < 0 || c.end > children[best].end) {
				best = i
			}
		}
		if best < 0 {
			return path
		}
		path = append(path, best)
		limit = children[best].start
	}
}

// tally counts attempted and failed operations: a non-2xx answer, a
// transport error and a wrong answer each count once against the attempt.
type tally struct{ attempted, failed int }

func (t *tally) add(ok, correct bool) {
	t.attempted++
	if !ok || !correct {
		t.failed++
	}
}

func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// lateness returns, sorted, how far behind schedule the open loop's
// pacer released each request. A wait for a free client comes after
// release: it is the system's queueing, not the generator's lateness.
func lateness(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = max(s.enq-s.due, 0)
	}
	slices.Sort(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
