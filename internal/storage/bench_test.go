package storage

import (
	"math/rand"
	"testing"

	"repro/internal/page"
)

// codecBenchPages are the two page shapes of the paper's R*-tree: a
// full data page (42 entries) and a full directory page (51).
var codecBenchPages = []struct {
	name  string
	typ   page.Type
	level int
	n     int
}{
	{"data42", page.TypeData, 0, 42},
	{"dir51", page.TypeDirectory, 1, 51},
}

func BenchmarkEncodePage(b *testing.B) {
	for _, c := range codecBenchPages {
		b.Run(c.name, func(b *testing.B) {
			p := makePage(1, c.typ, c.level, c.n, rand.New(rand.NewSource(1)))
			buf := make([]byte, PageSize)
			b.SetBytes(PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := EncodePage(p, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodePage(b *testing.B) {
	for _, c := range codecBenchPages {
		b.Run(c.name, func(b *testing.B) {
			p := makePage(1, c.typ, c.level, c.n, rand.New(rand.NewSource(1)))
			buf := make([]byte, PageSize)
			if err := EncodePage(p, buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodePage(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMemStoreRead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewMemStore()
	const n = 1024
	for i := 0; i < n; i++ {
		id := s.Allocate()
		if err := s.Write(makePage(id, page.TypeData, 0, 8, rng)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(page.ID(i%n + 1)); err != nil {
			b.Fatal(err)
		}
	}
}
