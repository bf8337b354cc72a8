package obs

import "math/bits"

// CriterionScale converts the float64 eviction criterion into the
// fixed-point int64 domain of the criterion histogram: nano-units.
// Quantiles keep the histogram's 12.5 % bound for criteria from 8e-9
// (8 units) up to 9.2e9 (the int64 limit); the sum is a float and does
// not wrap.
const CriterionScale = 1e9

// LogHistogram is a log-linear histogram for non-negative int64 values
// (request latencies in nanoseconds, fixed-point criterion values). It
// is a plain value with one writer: an engine keeps two, beside its
// Stats, and they are read, like Stats, under the engine's
// serialization. Histograms merge by Add, so the histograms of several
// engines are summed at scrape time.
//
// Bucketing follows the HDR scheme: values below histSub land in exact
// unit buckets; above that, each power-of-two octave is split into
// histSub linear sub-buckets, bounding the relative quantile error by
// 1/histSub (12.5%). The bucket layout is fixed at compile time, so two
// histograms are always structurally compatible. The zero value is ready
// to use.
type LogHistogram struct {
	// Count is the number of recorded values, the sum of the buckets.
	Count uint64
	// Sum is the sum of the recorded values. A float cannot wrap where an
	// int64 would: 2^63 fixed-point units are only 18 447 criteria of 5e5
	// at nano-unit scale.
	Sum    float64
	counts [histBuckets]uint64
}

const (
	// histSubBits is log2 of the sub-buckets per octave.
	histSubBits = 3
	histSub     = 1 << histSubBits
	// histBuckets covers all of int64: histSub exact unit buckets plus
	// histSub sub-buckets for each octave from histSubBits to 62.
	histBuckets = (63-histSubBits)*histSub + histSub
)

// histBucketIndex maps a non-negative value to its bucket.
func histBucketIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> (exp - histSubBits)) & (histSub - 1))
	return (exp-histSubBits+1)*histSub + sub
}

// histBucketLow returns the smallest value mapping to bucket idx.
func histBucketLow(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	exp := histSubBits + idx/histSub - 1
	sub := int64(idx % histSub)
	return int64(1)<<exp + sub<<(exp-histSubBits)
}

// histBucketHigh returns the largest value mapping to bucket idx.
func histBucketHigh(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	exp := histSubBits + idx/histSub - 1
	return histBucketLow(idx) + int64(1)<<(exp-histSubBits) - 1
}

// Observe records one value. Negative values are clamped to 0.
func (h *LogHistogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n occurrences of one value (a weighted sample).
func (h *LogHistogram) ObserveN(v int64, n uint64) {
	if v < 0 {
		v = 0
	}
	h.Count += n
	h.Sum += float64(v) * float64(n)
	h.counts[histBucketIndex(v)] += n
}

// Add adds o's values to h.
func (h *LogHistogram) Add(o *LogHistogram) {
	h.Count += o.Count
	h.Sum += o.Sum
	for i, n := range o.counts {
		h.counts[i] += n
	}
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) of the
// recorded values, interpolating linearly within the matched bucket.
// Returns 0 for an empty histogram.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	if target < 1 {
		target = 1
	}
	cum := uint64(0)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			low, high := histBucketLow(i), histBucketHigh(i)
			frac := (target - float64(cum)) / float64(c)
			return float64(low) + frac*float64(high-low)
		}
		cum += c
	}
	return 0 // unreachable: Count is the sum of the buckets
}

// CountAtMost returns how many recorded values are certainly ≤ v: the
// total count of buckets whose upper edge does not exceed v. Values in
// the bucket straddling v are excluded, so cumulative counts derived
// from a bound ladder stay monotone (the Prometheus histogram contract).
func (h *LogHistogram) CountAtMost(v int64) uint64 {
	if v < 0 {
		return 0
	}
	cum := uint64(0)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if histBucketHigh(i) > v {
			break
		}
		cum += c
	}
	return cum
}
