// Package storage provides page stores with physical-I/O accounting.
//
// The paper's experiments report disk-access counts, not wall-clock time, so
// the substrate here is a counting simulator: every Read/Write through a
// Store increments its Stats. Two implementations are provided:
//
//   - MemStore keeps pages in memory (used by the experiment harness),
//   - FileStore persists checksummed 4 KiB pages (format v2, codec.go) in
//     one file: a read is one pread, the checks and one copy of the entries.
//
// Both distinguish random from sequential reads (the paper's future-work
// item 1).
//
// Both are safe for concurrent use.
package storage

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/page"
)

// ErrPageNotFound is returned (wrapped) when reading a page ID that was
// never allocated or never written.
var ErrPageNotFound = errors.New("storage: page not found")

// Stats counts physical page accesses. In the simulation every Read is one
// disk access; the buffer manager in front of the store turns logical
// requests into hits (no Read) or misses (one Read).
type Stats struct {
	Reads      uint64 // physical page reads
	Writes     uint64 // physical page writes
	Sequential uint64 // reads of the page following the previously read one
}

// Store is a page container with I/O accounting.
//
// Read returns the stored page. Callers must not mutate the returned page;
// the buffer manager clones pages it intends to modify. A FileStore page
// holds a reference for the caller, who may page.Release it when done.
type Store interface {
	// Allocate reserves a fresh page ID. IDs are dense and start at 1.
	Allocate() page.ID
	// Write persists p under p.ID. The ID must have been allocated.
	Write(p *page.Page) error
	// Read fetches the page with the given ID, counting one physical read.
	Read(id page.ID) (*page.Page, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Stats returns the accumulated I/O counters.
	Stats() Stats
	// ResetStats zeroes the I/O counters (e.g. after building an index,
	// before measuring queries).
	ResetStats()
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// MemStore is an in-memory Store. Reads return the stored page pointer
// (no copy): pages are treated as immutable once written, matching the
// read-only query workloads of the paper's experiments.
type MemStore struct {
	mu       sync.Mutex
	pages    map[page.ID]*page.Page
	next     page.ID
	stats    Stats
	lastRead page.ID
	hasLast  bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{pages: make(map[page.ID]*page.Page), next: 1}
}

// Allocate implements Store.
func (s *MemStore) Allocate() page.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	return id
}

// Write implements Store.
func (s *MemStore) Write(p *page.Page) error {
	if p == nil || p.ID == page.InvalidID {
		return fmt.Errorf("storage: write of invalid page")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.ID >= s.next {
		return fmt.Errorf("storage: write of unallocated page %d", p.ID)
	}
	s.pages[p.ID] = p
	s.stats.Writes++
	return nil
}

// Read implements Store.
func (s *MemStore) Read(id page.ID) (*page.Page, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[id]
	if !ok {
		return nil, fmt.Errorf("storage: read page %d: %w", id, ErrPageNotFound)
	}
	s.stats.Reads++
	if s.hasLast && id == s.lastRead+1 {
		s.stats.Sequential++
	}
	s.lastRead = id
	s.hasLast = true
	return p, nil
}

// NumPages implements Store.
func (s *MemStore) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// Stats implements Store.
func (s *MemStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements Store.
func (s *MemStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
	s.lastRead = 0
	s.hasLast = false
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = nil
	return nil
}

// Frozen returns a read-only Store over the pages s holds now, for
// buffers that share one database and only read it (the figure replays).
// Its Read takes no lock and counts nothing: a buffer in front counts its
// own misses. Pages s gets afterwards are not in it, and Write and
// Allocate fail.
func (s *MemStore) Frozen() Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := make(frozen, s.next)
	for id, p := range s.pages {
		f[id] = p
	}
	return f
}

// frozen is a page table indexed by ID (index 0, InvalidID, is nil).
type frozen []*page.Page

func (f frozen) Read(id page.ID) (*page.Page, error) {
	if id < page.ID(len(f)) && f[id] != nil {
		return f[id], nil
	}
	return nil, fmt.Errorf("storage: read page %d: %w", id, ErrPageNotFound)
}

func (f frozen) Allocate() page.ID        { return page.InvalidID }
func (f frozen) Write(p *page.Page) error { return errors.New("storage: write to a frozen store") }
func (f frozen) Stats() Stats             { return Stats{} }
func (f frozen) ResetStats()              {}
func (f frozen) Close() error             { return nil }

func (f frozen) NumPages() int {
	n := 0
	for _, p := range f {
		if p != nil {
			n++
		}
	}
	return n
}
