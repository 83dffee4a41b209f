package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 10 samples slower than it, so it
// describes a repeatable tail and not one unlucky request.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted samples by the
// nearest-rank rule, and ok=false when fewer than minTail samples lie
// strictly beyond the rank it picks.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return sorted[rank], n-1-rank >= minTail
}

// median of an unsorted slice (the mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// interval is a closed-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// unionLength is the total length covered by a set of possibly
// overlapping intervals: the /fleet fan-out runs row spans in parallel,
// so their sum would count the same wall time more than once.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent so a child that outlives its parent
// cannot make self time negative.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return parent.end - parent.start - unionLength(clipped)
}
