package obs

import (
	"math"
	"testing"
)

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
	var h LogHistogram
	// 1000 values 1..1000: quantiles are known up to the 12.5% bucket
	// resolution.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := &h
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
	var h LogHistogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(-5) // clamped to 0
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("negative observation quantile = %f, want 0", got)
	}
}

// TestHistogramObserveN: a weighted observation is indistinguishable from
// that many single ones — count, sum, bucket and quantiles.
func TestHistogramObserveN(t *testing.T) {
	var weighted, single LogHistogram
	for _, o := range []struct {
		v int64
		n uint64
	}{{100, 64}, {5000, 1}, {100, 64}, {90000, 3}, {-7, 2}, {100, 0}} {
		weighted.ObserveN(o.v, o.n)
		for i := uint64(0); i < o.n; i++ {
			single.Observe(o.v)
		}
	}
	w := &weighted
	if weighted != single {
		t.Fatalf("weighted histogram differs from the one-by-one histogram:\n%+v\n%+v", weighted, single)
	}
	if w.Count != 134 || w.Sum != 128*100+5000+3*90000 {
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

// TestLogHistogramMerges: Add sums two histograms bucket by bucket —
// count, sum, quantiles and cumulative counts are those of one histogram
// that recorded both value sets — and adding an empty one changes
// nothing.
func TestLogHistogramMerges(t *testing.T) {
	var a, b, both LogHistogram
	for v := int64(1); v <= 300; v++ {
		a.Observe(v)
		both.Observe(v)
	}
	b.ObserveN(1000, 63)
	b.Observe(5e5)
	both.ObserveN(1000, 63)
	both.Observe(5e5)

	var m LogHistogram
	m.Add(&a)
	m.Add(&LogHistogram{})
	m.Add(&b)
	if m != both {
		t.Fatalf("merge differs from the histogram of both value sets")
	}
	if m.Count != 364 || m.Sum != 300*301/2+63*1000+5e5 {
		t.Errorf("merged count %d sum %g, want 364 and %g", m.Count, m.Sum, 300*301/2+63*1000+5e5)
	}
	if got := m.CountAtMost(math.MaxInt64); got != m.Count {
		t.Errorf("buckets hold %d values, count says %d", got, m.Count)
	}
}
