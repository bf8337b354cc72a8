package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histogram is a log-linear histogram for non-negative int64 values
// (request latencies in nanoseconds, fixed-point criterion values) with
// one writer and any number of readers. Recording is a load and a store
// to a bucket and to the sum — no read-modify-write, cheap enough to sit
// on the request path of a live buffer — and snapshots are mergeable, so
// the histograms of several engines are summed at scrape time.
//
// Bucketing follows the HDR scheme: values below histSub land in exact
// unit buckets; above that, each power-of-two octave is split into
// histSub linear sub-buckets, bounding the relative quantile error by
// 1/histSub (12.5%). The bucket layout is fixed at compile time, so two
// snapshots are always structurally compatible. The zero value is ready
// to use.
type histogram struct {
	// sum holds the bits of the float64 sum of the recorded values. A
	// float cannot wrap where an int64 would: 2^63 fixed-point units are
	// only 18 447 criteria of 5e5 at nano-unit scale.
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
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

// observe records one value. Negative values are clamped to 0.
func (h *histogram) observe(v int64) { h.observeN(v, 1) }

// observeN records n occurrences of one value (a weighted sample). Only
// the histogram's one writer may call it.
func (h *histogram) observeN(v int64, n uint64) {
	if v < 0 {
		v = 0
	}
	h.sum.Store(math.Float64bits(math.Float64frombits(h.sum.Load()) + float64(v)*float64(n)))
	b := &h.buckets[histBucketIndex(v)]
	b.Store(b.Load() + n)
}

// addTo adds the histogram's current values to s, the merge of several
// histograms' snapshots. Under a running writer the copy is per-bucket,
// not mutually, consistent (the expvar contract); quantiles computed
// from it are approximate by at most the in-flight writes. Count is the
// sum of the buckets copied, so it always equals the +Inf bucket.
func (h *histogram) addTo(s *HistSnapshot) {
	s.Sum += math.Float64frombits(h.sum.Load())
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.counts[i] += n
		s.Count += n
	}
}

// HistSnapshot is an immutable copy of a histogram (or the sum of
// several), safe to read from any goroutine.
type HistSnapshot struct {
	Count  uint64
	Sum    float64
	counts [histBuckets]uint64
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) of the
// recorded values, interpolating linearly within the matched bucket.
// Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	cum := uint64(0)
	for i, c := range s.counts {
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
	// Unreachable unless the snapshot is torn; fall back to the largest
	// occupied bucket's upper edge.
	for i := histBuckets - 1; i >= 0; i-- {
		if s.counts[i] > 0 {
			return float64(histBucketHigh(i))
		}
	}
	return 0
}

// CountAtMost returns how many recorded values are certainly ≤ v: the
// total count of buckets whose upper edge does not exceed v. Values in
// the bucket straddling v are excluded, so cumulative counts derived
// from a bound ladder stay monotone (the Prometheus histogram contract).
func (s HistSnapshot) CountAtMost(v int64) uint64 {
	if v < 0 {
		return 0
	}
	cum := uint64(0)
	for i, c := range s.counts {
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
