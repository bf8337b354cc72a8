package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// snapshot returns a point-in-time copy of the histogram.
func (h *histogram) snapshot() HistSnapshot {
	var s HistSnapshot
	h.addTo(&s)
	return s
}

func TestHistBucketLayout(t *testing.T) {
	// Buckets must tile the value space contiguously: every value maps to
	// a bucket whose [low, high] range contains it, and consecutive
	// buckets touch.
	for idx := 0; idx < histBuckets; idx++ {
		low, high := histBucketLow(idx), histBucketHigh(idx)
		if low > high {
			t.Fatalf("bucket %d: low %d > high %d", idx, low, high)
		}
		if got := histBucketIndex(low); got != idx {
			t.Fatalf("bucket %d: low %d maps to bucket %d", idx, low, got)
		}
		if got := histBucketIndex(high); got != idx {
			t.Fatalf("bucket %d: high %d maps to bucket %d", idx, high, got)
		}
		if idx > 0 && histBucketHigh(idx-1)+1 != low {
			t.Fatalf("gap between bucket %d (high %d) and %d (low %d)",
				idx-1, histBucketHigh(idx-1), idx, low)
		}
	}
	if got := histBucketIndex(math.MaxInt64); got != histBuckets-1 {
		t.Errorf("MaxInt64 maps to bucket %d, want %d", got, histBuckets-1)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	// 1000 values 1..1000: quantiles are known up to the 12.5% bucket
	// resolution.
	for v := int64(1); v <= 1000; v++ {
		h.observe(v)
	}
	s := h.snapshot()
	if s.Count != 1000 || s.Sum != 500500 {
		t.Fatalf("count/sum = %d/%g", s.Count, s.Sum)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000},
	} {
		got := s.Quantile(tc.q)
		if got < tc.want*0.85 || got > tc.want*1.15 {
			t.Errorf("q%.2f = %.0f, want within 15%% of %.0f", tc.q, got, tc.want)
		}
	}

	// CountAtMost is monotone and bracketed by the true CDF at bucket
	// edges.
	prev := uint64(0)
	for _, v := range []int64{0, 1, 10, 100, 500, 1000, 1 << 20} {
		c := s.CountAtMost(v)
		if c < prev {
			t.Fatalf("CountAtMost(%d) = %d < previous %d (not monotone)", v, c, prev)
		}
		if c > 1000 {
			t.Fatalf("CountAtMost(%d) = %d > count", v, c)
		}
		prev = c
	}
	if s.CountAtMost(1<<20) != 1000 {
		t.Errorf("CountAtMost above max = %d, want 1000", s.CountAtMost(1<<20))
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h histogram
	s := h.snapshot()
	if s.Quantile(0.5) != 0 {
		t.Error("empty snapshot should report zeros")
	}
	h.observe(-5) // clamped to 0
	if got := h.snapshot().Quantile(0.5); got != 0 {
		t.Errorf("negative observation quantile = %f, want 0", got)
	}
}

// TestHistogramObserveN: a weighted observation is indistinguishable from
// that many single ones — count, sum, bucket and quantiles.
func TestHistogramObserveN(t *testing.T) {
	var weighted, single histogram
	for _, o := range []struct {
		v int64
		n uint64
	}{{100, 64}, {5000, 1}, {100, 64}, {90000, 3}, {-7, 2}, {100, 0}} {
		weighted.observeN(o.v, o.n)
		for i := uint64(0); i < o.n; i++ {
			single.observe(o.v)
		}
	}
	w, s := weighted.snapshot(), single.snapshot()
	if w != s {
		t.Fatalf("weighted snapshot differs from the one-by-one snapshot:\n%+v\n%+v", w, s)
	}
	if w.Count != 134 || w.Sum != 128*100+5000+3*90000 || weighted.snapshot().Count != 134 {
		t.Errorf("count/sum = %d/%g, want 134/%d", w.Count, w.Sum, 128*100+5000+3*90000)
	}
	if got := w.CountAtMost(histBucketHigh(histBucketIndex(100))); got != 130 {
		t.Errorf("values ≤ 100's bucket = %d, want 130 (128 weighted + 2 clamped)", got)
	}
	// 128 of 134 samples are the weighted hits: median and p90 sit in
	// their bucket, only the tail sees the slow singles.
	for _, q := range []float64{0.5, 0.9} {
		if got := w.Quantile(q); got < 96 || got > 112 {
			t.Errorf("q%.2f = %.0f, want inside 100's bucket", q, got)
		}
	}
	if got := w.Quantile(0.99); got < 80000 {
		t.Errorf("q0.99 = %.0f, want the 90000 tail", got)
	}
}

// TestHistogramConcurrent: the histogram has one writer, and readers
// snapshot it while it writes (race-free under -race). Every snapshot
// counts no more than was written and no less than an earlier one, and
// the final one counts every value.
func TestHistogramConcurrent(t *testing.T) {
	var h histogram
	const readers, values = 4, 80000
	var written atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.snapshot()
				if s.Count < last || s.Count > written.Load() {
					t.Errorf("snapshot count %d after %d, with %d written", s.Count, last, written.Load())
					return
				}
				last = s.Count
			}
		}()
	}
	for i := 0; i < values; i++ {
		written.Add(1) // before the value, so no snapshot counts more
		h.observe(int64(i))
	}
	close(stop)
	wg.Wait()
	s := h.snapshot()
	if s.Count != values {
		t.Errorf("count = %d, want %d", s.Count, values)
	}
	total := s.CountAtMost(math.MaxInt64)
	if total != values {
		t.Errorf("bucket sum = %d, want %d", total, values)
	}
}

// TestSignalSnapshotMerges: a block's recorders reach its snapshot —
// Timed as a weighted latency sample, Evicted as a reason and a
// fixed-point criterion, Adapted as a direction — and the merge of two
// blocks and a Counters of drops is their sum.
func TestSignalSnapshotMerges(t *testing.T) {
	var a, b Signals
	a.Timed(42, 1)
	b.Timed(1000, 63)
	a.Evicted(ReasonSLRU, 0.5)
	b.Evicted(ReasonSLRU, 2)
	b.Evicted(ReasonLRU, 0)
	a.Adapted(3, 4)
	b.Adapted(4, 4)
	var drops Counters
	drops.AddDropped(7)

	var one SignalSnapshot
	one.Add(&a)
	if one.Latency.Count != 1 || one.Latency.Sum != 42 {
		t.Errorf("Timed(42, 1): latency count %d sum %g, want 1 and 42", one.Latency.Count, one.Latency.Sum)
	}
	var m SignalSnapshot
	m.AddCounters(&drops)
	m.Add(&a)
	m.Add(&b)
	want := Snapshot{Adaptations: 2, AdaptGrow: 1, AdaptHold: 1, Dropped: 7}
	want.ByReason[reasonSlotSLRU], want.ByReason[reasonSlotLRU] = 2, 1
	if m.Counters != want {
		t.Errorf("merged counters %+v, want %+v", m.Counters, want)
	}
	if m.Latency.Count != 64 || m.Latency.Sum != 42+63*1000 {
		t.Errorf("merged latency count %d sum %g, want 64 and %d", m.Latency.Count, m.Latency.Sum, 42+63*1000)
	}
	if m.Criterion.Count != 3 || m.Criterion.Sum != 2.5*CriterionScale {
		t.Errorf("merged criterion count %d sum %g, want 3 and %g", m.Criterion.Count, m.Criterion.Sum, 2.5*CriterionScale)
	}
}
