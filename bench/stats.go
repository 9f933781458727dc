package main

import (
	"math"
	"sort"
)

// minP99Samples is the fewest samples a p99 is reported from: below it
// fewer than ten samples lie beyond the percentile.
const minP99Samples = 1000

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile p (0 < p <= 1) of an
// ascending slice; NaN when the slice is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median of v (any order); NaN when empty.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quietMean is how a run's per-lifetime or per-slice values become the
// run's value of an end-to-end metric: the mean of the best quarter of
// them (rounded up) — the highest when higher is better, else the
// lowest. The other tenants of a shared host only ever slow the
// program, in spells of seconds to minutes, so the best quarter is the
// part of the run they touched least; a median or an interquartile mean
// moves as soon as a spell covers half or a quarter of the run
// (REPEATABILITY.md has the comparison on the same runs). NaN when empty.
func quietMean(v []float64, better string) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return math.NaN()
	}
	k := (len(s) + 3) / 4
	if better == "higher" {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(k)
}

// midMean is the interquartile mean: the mean of what is left after
// dropping the lowest and the highest quarter (rounded down) of v. It
// combines the numbers that have no better direction (how late the
// generator ran, the detail lines). NaN when empty.
func midMean(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return math.NaN()
	}
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// p99 reports the 99th percentile of v, or ok=false when v has fewer
// than minP99Samples samples.
func p99(v []float64) (val float64, ok bool) {
	if len(v) < minP99Samples {
		return math.NaN(), false
	}
	return percentile(sortedCopy(v), 0.99), true
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method); v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread the benchmark contract bounds.
func iqrShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(q2)
}

// selfTimes turns a ladder of medians, outermost rung first, into
// self times: each rung's median minus the median of the rung below.
// The innermost rung keeps its whole median.
func selfTimes(medians []float64) []float64 {
	self := make([]float64, len(medians))
	for i, m := range medians {
		self[i] = m
		if i+1 < len(medians) {
			self[i] = m - medians[i+1]
		}
	}
	return self
}
