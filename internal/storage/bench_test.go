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

// BenchmarkEncodePage encodes a page the tree built (new) and one a
// FileStore read decoded into recycled memory (recycled), as the
// write-back of a page read from the file does.
func BenchmarkEncodePage(b *testing.B) {
	for _, c := range codecBenchPages {
		p := makePage(1, c.typ, c.level, c.n, rand.New(rand.NewSource(1)))
		buf := make([]byte, PageSize)
		if err := EncodePage(p, buf); err != nil {
			b.Fatal(err)
		}
		leased, err := decodeInto(nil, buf)
		if err != nil {
			b.Fatal(err)
		}
		for _, from := range []struct {
			name string
			p    *page.Page
		}{{"new", p}, {"recycled", leased}} {
			b.Run(c.name+"/"+from.name, func(b *testing.B) {
				b.SetBytes(PageSize)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := EncodePage(from.p, buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDecodePage prices DecodePage, which allocates the page and its
// entry slice (new), and the decode a FileStore miss runs: into a page
// the pool evicted clean, claimed and recycled (recycled).
func BenchmarkDecodePage(b *testing.B) {
	for _, c := range codecBenchPages {
		buf := make([]byte, PageSize)
		if err := EncodePage(makePage(1, c.typ, c.level, c.n, rand.New(rand.NewSource(1))), buf); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/new", func(b *testing.B) {
			b.SetBytes(PageSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodePage(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/recycled", func(b *testing.B) {
			p, err := decodeInto(nil, buf)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Release()
				if p, err = decodeInto(p, buf); err != nil {
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
