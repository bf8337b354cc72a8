package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/page"
)

// pageBufPool recycles page-size scratch buffers for FileStore encode
// and decode. A sync.Pool instead of a per-store buffer lets any number
// of goroutines read and write concurrently without serializing on a
// shared scratch area.
var pageBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, PageSize)
		return &b
	},
}

// zeroPage is what a never-written slot reads as.
var zeroPage [PageSize]byte

// FileStore is a Store persisting pages in a single file of fixed-size
// slots: page ID n lives at byte offset (n−1)·PageSize, in the page
// format v2 of codec.go. A read costs one pread and one checked copy —
// the CRC, then one copy of the entries' bytes — and returns the Meta and
// Entries a MemStore holding the written page would. Bytes that fail
// validation surface as errCorruptPage, a slot allocated but never
// written as ErrPageNotFound. Every page Read returns is leased
// (page.Leased) and holds one reference, its caller's; Read decodes into
// pages Recycle handed back once nobody references them (DESIGN.md §5h).
//
// FileStore is safe for concurrent use without any internal lock: I/O
// goes through positioned ReadAt/WriteAt (independent pread/pwrite
// calls, no shared file offset), scratch buffers come from a pool, and
// the counters are atomics — so concurrent misses of an async buffer
// pool really do overlap in the kernel instead of serializing here.
type FileStore struct {
	f        *os.File
	next     atomic.Uint64
	recycled sync.Pool // of *page.Page

	reads      atomic.Uint64
	writes     atomic.Uint64
	sequential atomic.Uint64
	// lastRead holds the most recently read page ID, 0 before the first
	// read (page.InvalidID is 0, so no valid read is ever adjacent to
	// the sentinel). Under concurrent readers "the previous read" is
	// whichever racer stored last — the sequentiality counter is a
	// workload heuristic, not an exact series, and stays monotonic and
	// race-free either way.
	lastRead atomic.Uint64
}

// CreateFileStore creates (or truncates) the file at path and returns an
// empty store backed by it.
func CreateFileStore(path string) (*FileStore, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create file store: %w", err)
	}
	s := &FileStore{f: f}
	s.next.Store(1)
	return s, nil
}

// OpenFileStore opens an existing page file created by CreateFileStore.
// A file whose first page is not a valid v2 page — another format, or
// damaged — is rejected with errCorruptPage.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("storage: open file store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat file store: %w", err)
	}
	if fi.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s: size %d not a multiple of page size", path, fi.Size())
	}
	s := &FileStore{f: f}
	s.next.Store(uint64(fi.Size()/PageSize) + 1)
	if s.NumPages() > 0 {
		if _, err := s.load(1); err != nil && !errors.Is(err, ErrPageNotFound) {
			f.Close()
			return nil, fmt.Errorf("storage: %s is not a v2 page file: %w", path, err)
		}
	}
	return s, nil
}

// Allocate implements Store.
func (s *FileStore) Allocate() page.ID {
	return page.ID(s.next.Add(1) - 1)
}

// Write implements Store.
func (s *FileStore) Write(p *page.Page) error {
	if p == nil || p.ID == page.InvalidID {
		return fmt.Errorf("storage: write of invalid page")
	}
	if uint64(p.ID) >= s.next.Load() {
		return fmt.Errorf("storage: write of unallocated page %d", p.ID)
	}
	bufp := pageBufPool.Get().(*[]byte)
	defer pageBufPool.Put(bufp)
	buf := *bufp
	if err := EncodePage(p, buf); err != nil {
		return err
	}
	if _, err := s.f.WriteAt(buf, int64(p.ID-1)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", p.ID, err)
	}
	s.writes.Add(1)
	return nil
}

// Read implements Store.
func (s *FileStore) Read(id page.ID) (*page.Page, error) {
	if id == page.InvalidID || uint64(id) >= s.next.Load() {
		return nil, fmt.Errorf("storage: read page %d: %w", id, ErrPageNotFound)
	}
	p, err := s.load(id)
	if err != nil {
		return nil, err
	}
	s.reads.Add(1)
	if prev := s.lastRead.Swap(uint64(id)); prev != 0 && uint64(id) == prev+1 {
		s.sequential.Add(1)
	}
	return p, nil
}

// load reads and validates the slot of an allocated page ID.
func (s *FileStore) load(id page.ID) (*page.Page, error) {
	bufp := pageBufPool.Get().(*[]byte)
	defer pageBufPool.Put(bufp)
	buf := *bufp
	n, err := s.f.ReadAt(buf, int64(id-1)*PageSize)
	if err == io.EOF {
		// Allocated but at or past the end of the file: the missing
		// bytes are a hole, which reads as zeros.
		clear(buf[n:])
	} else if err != nil {
		return nil, fmt.Errorf("storage: read page %d: %w", id, err)
	}
	reuse, _ := s.recycled.Get().(*page.Page)
	p, err := decodeInto(reuse, buf)
	if err != nil {
		if bytes.Equal(buf, zeroPage[:]) {
			return nil, fmt.Errorf("storage: read page %d: never written: %w", id, ErrPageNotFound)
		}
		return nil, fmt.Errorf("storage: read page %d: %w", id, err)
	}
	if p.ID != id {
		return nil, fmt.Errorf("storage: read page %d: %w: slot holds page %d", id, errCorruptPage, p.ID)
	}
	return p, nil
}

// Recycle takes back a page that Read returned — one a buffer pool let go
// of — for a Read to decode into once nobody references it.
func (s *FileStore) Recycle(p *page.Page) { s.recycled.Put(p) }

// NumPages implements Store.
func (s *FileStore) NumPages() int {
	return int(s.next.Load() - 1)
}

// Stats implements Store. Under concurrent I/O the three counters are
// individually, not mutually, consistent — the usual scrape contract.
func (s *FileStore) Stats() Stats {
	return Stats{
		Reads:      s.reads.Load(),
		Writes:     s.writes.Load(),
		Sequential: s.sequential.Load(),
	}
}

// ResetStats implements Store.
func (s *FileStore) ResetStats() {
	s.reads.Store(0)
	s.writes.Store(0)
	s.sequential.Store(0)
	s.lastRead.Store(0)
}

// Close implements Store.
func (s *FileStore) Close() error {
	return s.f.Close()
}
