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

// leaseStore is a FileStore that remembers every page its Read handed
// out: the leased pages, whatever became of them.
type leaseStore struct {
	*storage.FileStore
	mu   sync.Mutex
	seen map[*page.Page]bool
}

func (s *leaseStore) Read(id page.ID) (*page.Page, error) {
	p, err := s.FileStore.Read(id)
	if err == nil {
		s.mu.Lock()
		s.seen[p] = true
		s.mu.Unlock()
	}
	return p, err
}

// referenced reports whether the leased page p holds a reference. It
// claims p if it can, and undoes that: call it where nothing reads the
// store.
func referenced(p *page.Page) bool {
	if p.Claim() {
		p.Unclaim(0)
		return false
	}
	return p.TryAcquire(0) // false: somebody has claimed it
}

// TestPoolReferencesWhatItKeeps: a pool holds a reference of its own on
// every leased page it keeps, resident or queued for write-back, so a
// store decodes into a page only after the pool let go of it and nobody
// else holds it. Random histories of Get, Put (of a page a caller holds,
// or of a changed copy), Release, Flush and Clear run on three goroutines
// (one on bare) over a FileStore. At every quiescent point each leased
// page the pool keeps is referenced, no page object is resident twice,
// and every page a caller holds still reads as what it got. After Clear,
// Close and the callers' releases, no leased page the store ever handed
// out holds a reference. On bare, locked and async,shards=2, the last
// two with the latch-free hit path forced on and left to itself.
func TestPoolReferencesWhatItKeeps(t *testing.T) {
	const pages, frames, rounds, steps, holds = 48, 8, 20, 150, 4
	src := storage.NewMemStore()
	for range pages {
		id := src.Allocate()
		p := page.New(id, page.TypeData, 0, 8)
		for k := range 1 + int(id)%7 {
			p.Append(page.Entry{MBR: geom.NewRect(0, 0, float64(id), float64(k+1)), ObjID: uint64(id)<<8 | uint64(k)})
		}
		p.Recompute()
		if err := src.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	asb, err := core.FactoryByName("ASB")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"bare", "locked", "async,shards=2"} {
		for _, forced := range []bool{false, true} {
			if spec == "bare" && forced {
				continue
			}
			t.Run(fmt.Sprintf("%s/deferred=%t", spec, forced), func(t *testing.T) {
				ls := &leaseStore{FileStore: fileCopy(t, src), seen: map[*page.Page]bool{}}
				comp, err := buffer.ParseComposition(spec)
				if err != nil {
					t.Fatal(err)
				}
				pool, err := comp.Build(ls, asb.New, frames)
				if err != nil {
					t.Fatal(err)
				}
				workers := 3
				if spec == "bare" {
					workers = 1
				} else if forced {
					buffer.ForceDeferral(t, pool)
				}
				type held struct {
					p   *page.Page
					id  page.ID
					sum uint64
				}
				// check releases h, after checking it still reads as what
				// the caller got.
				check := func(h held) {
					if h.p.ID != h.id || entrySum(h.p) != h.sum {
						t.Errorf("a held page %d now reads as page %d (entries %#x, were %#x)", h.id, h.p.ID, entrySum(h.p), h.sum)
					}
					h.p.Release()
				}
				hold := make([][]held, workers)
				for round := range rounds {
					var wg sync.WaitGroup
					for w := range workers {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(round*workers + w)))
							ctx := buffer.AccessContext{QueryID: uint64(w)}
							for range steps {
								h := hold[w]
								var err error
								switch r := rng.Intn(100); {
								case r < 45:
									id := page.ID(1 + rng.Intn(pages))
									var p *page.Page
									if p, err = pool.Get(id, ctx); err == nil {
										if len(h) == holds {
											check(h[0])
											h = h[1:]
										}
										h = append(h, held{p, id, entrySum(p)})
									}
								case r < 55 && len(h) > 0:
									err = pool.Put(h[rng.Intn(len(h))].p, ctx)
								case r < 65 && len(h) > 0:
									c := h[rng.Intn(len(h))].p.Clone()
									c.Entries[0].ObjID ^= 1 << 40
									err = pool.Put(c, ctx)
								case r < 92 && len(h) > 0:
									check(h[0])
									h = h[1:]
								case r < 97:
									err = pool.Flush()
								default:
									err = pool.Clear()
								}
								hold[w] = h
								if err != nil {
									t.Error(err)
									return
								}
							}
						}(w)
					}
					wg.Wait()
					resident := map[*page.Page]bool{}
					buffer.Kept(pool, func(p *page.Page, queued bool) {
						if !queued {
							if resident[p] {
								t.Errorf("round %d: page object of page %d is resident twice", round, p.ID)
							}
							resident[p] = true
						}
						ls.mu.Lock()
						leased := ls.seen[p]
						ls.mu.Unlock()
						if leased && !referenced(p) {
							t.Errorf("round %d: page %d (queued %t) is kept without a reference", round, p.ID, queued)
						}
					})
					if t.Failed() {
						return
					}
				}
				if err := pool.Clear(); err != nil {
					t.Fatal(err)
				}
				if cl, ok := pool.(interface{ Close() error }); ok {
					if err := cl.Close(); err != nil {
						t.Fatal(err)
					}
				}
				for _, h := range hold {
					for _, x := range h {
						check(x)
					}
				}
				for p := range ls.seen {
					if referenced(p) {
						t.Errorf("page %d holds a reference after Clear, Close and every caller's release", p.ID)
					}
				}
			})
		}
	}
}
