package main

import "testing"

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {99, 0.5}, // fewer than ten samples beyond p90
		{100, 0.9}, {999, 0.9}, // ten beyond p90, not yet beyond p99
		{1000, 0.99}, {6000, 0.99}, // the smallest full-scale round
		{10_000_000, 0.99}, // p99 is the ceiling, whatever the count
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 11, 9, 10, 400, 10, 2}, 10}, // two bad rounds of seven do not move it
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its argument: %v", c.in)
			}
		}
	}
	if got := spreadPct([]float64{90, 100, 110}); got != 20 {
		t.Errorf("spreadPct = %v, want 20", got)
	}
}

func TestQuietRounds(t *testing.T) {
	// Ten rounds at 100 with a slow phase over six of them: the median
	// over all rounds follows the phase, the fastest fifth does not.
	rate := []float64{100, 62, 60, 101, 61, 99, 63, 60, 64, 100}
	if got := median(rate); got != 63.5 {
		t.Fatalf("median = %v, want 63.5", got)
	}
	if got := quiet(rate, +1); got != 100 { // of 100, 100, 101
		t.Errorf("quiet(rates) = %v, want 100", got)
	}
	if got := quiet([]float64{5, 9, 4, 8, 6, 7, 5.5, 9, 9, 9}, -1); got != 5 { // of 4, 5, 5.5
		t.Errorf("quiet(latencies) = %v, want 5", got)
	}
	// A fifth of 30 rounds is 6: the mean of the third and fourth best.
	many := make([]float64, 30)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if got := quiet(many, +1); got != 27.5 {
		t.Errorf("quiet(1..30) = %v, want 27.5", got)
	}
	// Fewer than three rounds: their median.
	if got := quiet([]float64{3, 1}, +1); got != 2 {
		t.Errorf("quiet of two = %v, want 2", got)
	}
	if got := quiet(nil, +1); got != 0 {
		t.Errorf("quiet of nothing = %v, want 0", got)
	}
}
