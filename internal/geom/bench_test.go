package geom

import (
	"math/rand"
	"testing"
)

func benchRects(n int) []Rect {
	rng := rand.New(rand.NewSource(1))
	rs := make([]Rect, n)
	for i := range rs {
		rs[i] = randRect(rng)
	}
	return rs
}

func BenchmarkUnion(b *testing.B) {
	rs := benchRects(1024)
	b.ResetTimer()
	acc := EmptyRect()
	for i := 0; i < b.N; i++ {
		acc = acc.Union(rs[i%len(rs)])
	}
	_ = acc
}

func BenchmarkOverlapArea(b *testing.B) {
	rs := benchRects(1024)
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += rs[i%len(rs)].OverlapArea(rs[(i+1)%len(rs)])
	}
	_ = sum
}

func BenchmarkEnlargement(b *testing.B) {
	rs := benchRects(1024)
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += rs[i%len(rs)].Enlargement(rs[(i+7)%len(rs)])
	}
	_ = sum
}
