package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free log-linear histogram for non-negative int64
// values (request latencies in nanoseconds, fixed-point criterion
// values). Recording is one atomic add per value plus count/sum upkeep —
// cheap enough to sit on the request hot path of a live buffer — and
// snapshots are mergeable, so per-shard histograms can be summed at
// scrape time.
//
// Bucketing follows the HDR scheme: values below histSub land in exact
// unit buckets; above that, each power-of-two octave is split into
// histSub linear sub-buckets, bounding the relative quantile error by
// 1/histSub (12.5%). The bucket layout is fixed at compile time, so two
// snapshots are always structurally compatible.
//
// Histogram implements LatencyRecorder (RecordLatency == ObserveN), so it
// can be attached wherever the buffer manager publishes request timings,
// and (via the embedded NopSink) satisfies Sink, so a latency-only
// histogram can ride in a Tee next to event-consuming sinks. The zero
// value is ready to use.
type Histogram struct {
	NopSink

	count   atomic.Uint64
	sum     atomic.Int64
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

// Observe records one value. Negative values are clamped to 0.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n occurrences of one value (a weighted sample).
func (h *Histogram) ObserveN(v int64, n uint64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(n)
	h.sum.Add(v * int64(n))
	h.buckets[histBucketIndex(v)].Add(n)
}

// RecordLatency implements LatencyRecorder.
func (h *Histogram) RecordLatency(nanos int64, weight uint64) { h.ObserveN(nanos, weight) }

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot returns a point-in-time copy of the histogram. Under
// concurrent writers the copy is per-bucket, not mutually, consistent
// (the expvar contract); quantiles computed from it are approximate by
// at most the in-flight writes.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.counts[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is an immutable copy of a Histogram, safe to read from
// any goroutine and to merge with other snapshots.
type HistSnapshot struct {
	Count  uint64
	Sum    int64
	counts [histBuckets]uint64
}

// Mean returns the mean recorded value, or 0 for an empty snapshot.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
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

// Max returns the upper edge of the highest occupied bucket (an upper
// bound on the largest recorded value), or 0 for an empty snapshot.
func (s HistSnapshot) Max() int64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.counts[i] > 0 {
			return histBucketHigh(i)
		}
	}
	return 0
}
