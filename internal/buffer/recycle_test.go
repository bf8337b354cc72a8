package buffer_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// TestRecycledPagesStayIntact: a FileStore decodes into the memory of
// pages its pool evicted clean, and no reader may see such a page change
// under it. Four goroutines run window Searches, which release every
// node, through a pool of 4 % of the tree, and check each result against
// the same Search on the MemStore the tree was built in. Two more Get
// pages without ever releasing them and re-check each page's ID and entry
// checksum after a hundred further calls on the pool. On the locked and
// the async layout, with the latch-free hit path forced on for good and
// left to itself; under -race the detector watches every decode.
func TestRecycledPagesStayIntact(t *testing.T) {
	const searchers, holders, rounds, holdCalls, holderCalls = 4, 2, 3, 100, 3000
	db, err := experiment.Build(1, experiment.Options{Objects: 6_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := db.QuerySet("U-W-33", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(qs.Queries))
	for i, q := range qs.Queries {
		want[i] = searchSum(t, db.Tree, rtree.StoreReader{Store: db.Store}, q.Rect)
	}
	asb, err := core.FactoryByName("ASB")
	if err != nil {
		t.Fatal(err)
	}
	pages := db.Store.NumPages()
	for _, spec := range []string{"locked", "async,shards=2"} {
		for _, forced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/deferred=%t", spec, forced), func(t *testing.T) {
				comp, err := buffer.ParseComposition(spec)
				if err != nil {
					t.Fatal(err)
				}
				pool, err := comp.Build(fileCopy(t, db.Store), asb.New, max(4, pages*4/100))
				if err != nil {
					t.Fatal(err)
				}
				if forced {
					buffer.ForceDeferral(t, pool)
				}
				rd := &reuseWatch{pool: pool, last: map[*page.Page]page.ID{}}
				var wg sync.WaitGroup
				for w := 0; w < searchers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := range rounds * len(qs.Queries) {
							q := (i + w*len(qs.Queries)/searchers) % len(qs.Queries)
							if got := searchSum(t, db.Tree, rd, qs.Queries[q].Rect); got != want[q] {
								t.Errorf("searcher %d: query %d found %#x, want %#x", w, q, got, want[q])
								return
							}
						}
					}(w)
				}
				for h := 0; h < holders; h++ {
					wg.Add(1)
					go func(h int) {
						defer wg.Done()
						type held struct {
							p   *page.Page
							id  page.ID
							sum uint64
						}
						rng := rand.New(rand.NewSource(int64(h)))
						var ring [holdCalls]held
						for i := range holderCalls {
							if old := ring[i%holdCalls]; old.p != nil && (old.p.ID != old.id || entrySum(old.p) != old.sum) {
								t.Errorf("holder %d: page %d, held for %d calls, now reads as page %d (entries %#x, were %#x)",
									h, old.id, holdCalls, old.p.ID, entrySum(old.p), old.sum)
								return
							}
							id := page.ID(1 + rng.Intn(pages))
							p, err := pool.Get(id, buffer.AccessContext{QueryID: uint64(1+h) << 40})
							if err != nil || p.ID != id {
								t.Errorf("holder %d: Get(%d) = %v, %v", h, id, p, err)
								return
							}
							ring[i%holdCalls] = held{p, id, entrySum(p)}
						}
					}(h)
				}
				wg.Wait()
				if st := pool.Stats(); st.Hits+st.Misses != st.Requests || st.Evictions == 0 {
					t.Errorf("stats %+v: the run was meant to evict", st)
				}
				if rd.reused.Load() == 0 {
					t.Error("no page memory was reused under another page ID: nothing was recycled")
				}
				if cl, ok := pool.(interface{ Close() error }); ok {
					if err := cl.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// reuseWatch is a Reader that counts the pages it is handed under another
// ID than the last time it saw their memory.
type reuseWatch struct {
	pool   buffer.Pool
	mu     sync.Mutex
	last   map[*page.Page]page.ID
	reused atomic.Int64
}

func (r *reuseWatch) Get(id page.ID, ctx buffer.AccessContext) (*page.Page, error) {
	p, err := r.pool.Get(id, ctx)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if prev, ok := r.last[p]; ok && prev != id {
		r.reused.Add(1)
	}
	r.last[p] = id
	r.mu.Unlock()
	return p, nil
}

// searchSum runs one window Search and digests what it found.
func searchSum(t *testing.T, tree *rtree.Tree, rd rtree.Reader, window geom.Rect) uint64 {
	var n, x uint64
	if err := tree.Search(rd, buffer.AccessContext{}, window, func(e page.Entry) bool {
		n++
		x ^= e.ObjID * 0x9E3779B97F4A7C15
		return true
	}); err != nil {
		t.Error(err)
	}
	return n<<48 ^ x
}

// entrySum digests every field of every entry of p.
func entrySum(p *page.Page) uint64 {
	h := uint64(len(p.Entries))
	for _, e := range p.Entries {
		for _, v := range []uint64{math.Float64bits(e.MBR.MinX), math.Float64bits(e.MBR.MinY),
			math.Float64bits(e.MBR.MaxX), math.Float64bits(e.MBR.MaxY), uint64(e.Child), e.ObjID} {
			h = (h ^ v) * 0x100000001B3
		}
	}
	return h
}

// fileCopy writes every page of src to a new FileStore under the same ID.
func fileCopy(t *testing.T, src storage.Store) *storage.FileStore {
	t.Helper()
	fs, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	for id := page.ID(1); int(id) <= src.NumPages(); id++ {
		p, err := src.Read(id)
		if err == nil && fs.Allocate() != id {
			err = fmt.Errorf("allocated out of order at page %d", id)
		}
		if err == nil {
			err = fs.Write(p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return fs
}
