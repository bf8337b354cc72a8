package obs

import (
	"math"
	"sync"
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
	var h Histogram
	// 1000 values 1..1000: quantiles are known up to the 12.5% bucket
	// resolution.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 500500 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000},
	} {
		got := s.Quantile(tc.q)
		if got < tc.want*0.85 || got > tc.want*1.15 {
			t.Errorf("q%.2f = %.0f, want within 15%% of %.0f", tc.q, got, tc.want)
		}
	}
	if s.Mean() < 480 || s.Mean() > 520 {
		t.Errorf("mean = %f, want ≈500.5", s.Mean())
	}
	if max := s.Max(); max < 1000 {
		t.Errorf("max = %d, want ≥ 1000", max)
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
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Error("empty snapshot should report zeros")
	}
	h.Observe(-5) // clamped to 0
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("negative observation quantile = %f, want 0", got)
	}
}

// TestHistogramObserveN: a weighted observation is indistinguishable from
// that many single ones — count, sum, bucket and quantiles.
func TestHistogramObserveN(t *testing.T) {
	var weighted, single Histogram
	for _, o := range []struct {
		v int64
		n uint64
	}{{100, 64}, {5000, 1}, {100, 64}, {90000, 3}, {-7, 2}, {100, 0}} {
		weighted.ObserveN(o.v, o.n)
		for i := uint64(0); i < o.n; i++ {
			single.Observe(o.v)
		}
	}
	w, s := weighted.Snapshot(), single.Snapshot()
	if w != s {
		t.Fatalf("weighted snapshot differs from the one-by-one snapshot:\n%+v\n%+v", w, s)
	}
	if w.Count != 134 || w.Sum != 128*100+5000+3*90000 || weighted.Count() != 134 {
		t.Errorf("count/sum = %d/%d, want 134/%d", w.Count, w.Sum, 128*100+5000+3*90000)
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

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Errorf("count = %d, want %d", s.Count, goroutines*per)
	}
	total := s.CountAtMost(math.MaxInt64)
	if total != goroutines*per {
		t.Errorf("bucket sum = %d, want %d", total, goroutines*per)
	}
}

func TestHistogramImplementsLatencyRecorder(t *testing.T) {
	var h Histogram
	var lr LatencyRecorder = &h
	lr.RecordLatency(42, 1)
	if h.Count() != 1 {
		t.Error("RecordLatency did not observe")
	}
}
