package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of vs (the mean of the two middle
// values for an even count), or 0 for an empty slice. vs is not
// modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quietShare is the share of a run's rounds, the fastest, that its timing
// metrics are read from.
const quietShare = 0.2

// quiet returns the median of the fastest fifth of vs, and of at least
// three values when vs has that many: the largest when faster is +1, the
// smallest when it is -1. It is how a run's rounds become one timing.
// The benchmark shares its host, and what the host does to a round only
// ever slows it, for seconds to tens of seconds at a time, so the median
// over all rounds moves with the share of a run the host disturbed while
// the fastest rounds stay where the program put them. The median of a
// fifth, not the single best round, so that one lucky round decides
// nothing. vs is not modified.
func quiet(vs []float64, faster int) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := min(len(s), max(3, int(math.Ceil(quietShare*float64(len(s))))))
	if faster > 0 {
		return median(s[len(s)-k:])
	}
	return median(s[:k])
}

// medianNs sorts the samples in place and returns their median.
func medianNs(samples []int64) float64 {
	slices.Sort(samples)
	return float64(quantile(samples, 0.5))
}

// spreadPct is (max−min)/median of vs in percent: how far apart the
// rounds of one run landed.
func spreadPct(vs []float64) float64 {
	m := median(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return 100 * (hi - lo) / m
}

// tailQuantile returns the highest of p50, p90 and p99 that still has at
// least ten of the n samples beyond it. A tail read from fewer samples
// is one outlier, not a percentile; p99 is the ceiling so the metric
// named after it never silently means something higher.
func tailQuantile(n int) float64 {
	for _, permille := range []int{990, 900} {
		if rank := (n*permille + 999) / 1000; n-rank >= 10 { // nearest rank, in integers
			return float64(permille) / 1000
		}
	}
	return 0.5
}

// quantile returns the q-quantile (nearest rank) of an ascending slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ratio is a/b, or 0 when b is 0 (a share of nothing is reported as 0,
// never as NaN: every metric must print as a finite number).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
