package rtree

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/storage"
)

// nodeIO abstracts how the tree's mutation paths read, write and allocate
// nodes. The default goes straight to the store; UseBuffer routes node
// traffic through a buffer manager so that update workloads (inserts,
// deletes) are charged to the replacement policy under study — the
// paper's future-work item 2.
type nodeIO interface {
	Read(id page.ID) (*page.Page, error)
	Write(p *page.Page) error
	Allocate() page.ID
}

// storeIO is the default, unbuffered node I/O.
type storeIO struct {
	store storage.Store
}

func (s storeIO) Read(id page.ID) (*page.Page, error) { return s.store.Read(id) }
func (s storeIO) Write(p *page.Page) error            { return s.store.Write(p) }
func (s storeIO) Allocate() page.ID                   { return s.store.Allocate() }

// bufferedIO routes node reads through a buffer pool's read path and
// node writes through its write path (dirty pages are written back on
// eviction), under a fixed access context. Any buffer.Pool works: a
// bare Engine for the single-threaded experiments, a locked, sharded or
// async composition when the tree shares its buffer with concurrent
// readers.
type bufferedIO struct {
	pool  buffer.Pool
	store storage.Store
	ctx   buffer.AccessContext
}

func (b *bufferedIO) Read(id page.ID) (*page.Page, error) { return b.pool.Get(id, b.ctx) }
func (b *bufferedIO) Write(p *page.Page) error            { return b.pool.Put(p, b.ctx) }
func (b *bufferedIO) Allocate() page.ID                   { return b.store.Allocate() }

// UseBuffer routes all subsequent mutation I/O (Insert, Delete) through
// the buffer pool under the given context; queries already take their
// Reader explicitly. Call UnbufferedIO to restore direct store access.
// The caller must Flush the pool before reading the tree through any
// other path.
func (t *Tree) UseBuffer(pool buffer.Pool, ctx buffer.AccessContext) error {
	if pool == nil {
		return fmt.Errorf("rtree: UseBuffer with nil buffer pool")
	}
	t.io = &bufferedIO{pool: pool, store: t.store, ctx: ctx}
	return nil
}

// UseBufferContext updates the access context of buffered mutation I/O
// (e.g. one context per update operation, so correlated accesses are
// recognized).
func (t *Tree) UseBufferContext(ctx buffer.AccessContext) error {
	b, ok := t.io.(*bufferedIO)
	if !ok {
		return fmt.Errorf("rtree: UseBufferContext without UseBuffer")
	}
	b.ctx = ctx
	return nil
}

// UnbufferedIO restores direct store access for mutations.
func (t *Tree) UnbufferedIO() {
	t.io = storeIO{store: t.store}
}
