// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990): the spatial access method used by the paper's
// experiments. It provides dynamic insertion with forced reinsertion and
// the R* split, deletion with tree condensation, window queries (a point
// query is a degenerate window) and a synchronized-traversal join.
//
// Tree nodes are the pages of package page, persisted through a
// storage.Store. Construction goes directly to the store; queries read
// nodes through a pluggable Reader so that a buffer.Engine can sit in
// between and the replacement policy under study determines the physical
// I/O — the measurement setup of the paper.
package rtree

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// Params configure an R*-tree. The defaults (DefaultParams) match the
// paper's primary database: at most 51 entries per directory page and 42
// per data page.
type Params struct {
	// MaxDirEntries is the directory-page fan-out (M for inner nodes).
	MaxDirEntries int
	// MaxDataEntries is the data-page capacity (M for leaves).
	MaxDataEntries int
	// MinFillFrac is the minimum fill grade m/M; the R*-tree authors
	// recommend 0.4.
	MinFillFrac float64
	// ReinsertFrac is the share of entries removed for forced reinsertion
	// on the first overflow per level; the R*-tree authors recommend 0.3.
	ReinsertFrac float64
}

// DefaultParams returns the paper's tree parameters.
func DefaultParams() Params {
	return Params{
		MaxDirEntries:  51,
		MaxDataEntries: 42,
		MinFillFrac:    0.4,
		ReinsertFrac:   0.3,
	}
}

// validate checks parameter sanity.
func (p Params) validate() error {
	if p.MaxDirEntries < 4 || p.MaxDataEntries < 4 {
		return fmt.Errorf("rtree: fan-outs must be ≥ 4, got %d/%d", p.MaxDirEntries, p.MaxDataEntries)
	}
	if p.MinFillFrac <= 0 || p.MinFillFrac > 0.5 {
		return fmt.Errorf("rtree: MinFillFrac %g outside (0, 0.5]", p.MinFillFrac)
	}
	if p.ReinsertFrac <= 0 || p.ReinsertFrac >= 1 {
		return fmt.Errorf("rtree: ReinsertFrac %g outside (0, 1)", p.ReinsertFrac)
	}
	return nil
}

// maxEntries returns M for a node at the given level.
func (p Params) maxEntries(level int) int {
	if level == 0 {
		return p.MaxDataEntries
	}
	return p.MaxDirEntries
}

// minEntries returns m for a node at the given level.
func (p Params) minEntries(level int) int {
	m := int(p.MinFillFrac * float64(p.maxEntries(level)))
	if m < 2 {
		m = 2
	}
	return m
}

// Tree is an R*-tree over a page store. It is not safe for concurrent
// mutation; concurrent read-only queries through independent Readers are
// fine.
type Tree struct {
	store  storage.Store
	io     nodeIO
	params Params

	root       page.ID
	height     int // number of levels; 1 = the root is a leaf
	numObjects int

	// reinsertDone has bit l set once level l used forced reinsertion
	// during the current insertion (OverflowTreatment is allowed once per
	// level per inserted entry).
	reinsertDone uint64
}

// maxHeight bounds the tree so that every level has a bit in
// reinsertDone; the page format stores a level in 16 bits.
const maxHeight = 64

// New creates an empty R*-tree on the store.
func New(store storage.Store, params Params) (*Tree, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, errors.New("rtree: nil store")
	}
	t := &Tree{store: store, io: storeIO{store: store}, params: params, height: 1}
	rootID := store.Allocate()
	root := page.New(rootID, page.TypeData, 0, params.MaxDataEntries)
	if err := store.Write(root); err != nil {
		return nil, fmt.Errorf("rtree: write initial root: %w", err)
	}
	t.root = rootID
	return t, nil
}

// Height returns the number of levels (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// NumObjects returns the number of stored objects.
func (t *Tree) NumObjects() int { return t.numObjects }

// Params returns the tree parameters.
func (t *Tree) Params() Params { return t.params }

// Store returns the underlying page store.
func (t *Tree) Store() storage.Store { return t.store }

// read loads a node via the tree's node I/O (the plain store by default,
// a buffer manager after UseBuffer).
func (t *Tree) read(id page.ID) (*page.Page, error) {
	p, err := t.io.Read(id)
	if err != nil {
		return nil, fmt.Errorf("rtree: read node %d: %w", id, err)
	}
	return p, nil
}

// write persists a node after refreshing its O(n) statistics.
func (t *Tree) write(p *page.Page) error {
	p.RecomputeFast()
	if err := t.io.Write(p); err != nil {
		return fmt.Errorf("rtree: write node %d: %w", p.ID, err)
	}
	return nil
}

// FinalizeStats runs the full statistics pass (including the O(n²) entry
// overlap needed by the EO replacement criterion) over every node of the
// tree. Call once after bulk construction, before measuring queries.
func (t *Tree) FinalizeStats() error {
	return t.walk(t.root, func(p *page.Page) error {
		p.Recompute()
		return t.store.Write(p)
	})
}

// walk applies fn to every node of the tree in depth-first order.
func (t *Tree) walk(id page.ID, fn func(*page.Page) error) error {
	p, err := t.read(id)
	if err != nil {
		return err
	}
	if err := fn(p); err != nil {
		return err
	}
	if p.Level == 0 {
		return nil
	}
	for _, e := range p.Entries {
		if err := t.walk(e.Child, fn); err != nil {
			return err
		}
	}
	return nil
}

// TreeStats summarize the structure of a tree.
type TreeStats struct {
	Height     int
	DirPages   int
	DataPages  int
	NumObjects int
	RootMBR    geom.Rect
}

// TotalPages returns the total number of tree pages.
func (s TreeStats) TotalPages() int { return s.DirPages + s.DataPages }

// DirFraction returns the share of directory pages (the paper reports
// 2.84% for database 1 and 2.87% for database 2).
func (s TreeStats) DirFraction() float64 {
	if s.TotalPages() == 0 {
		return 0
	}
	return float64(s.DirPages) / float64(s.TotalPages())
}

// Stats walks the tree and returns its structural statistics.
func (t *Tree) Stats() (TreeStats, error) {
	st := TreeStats{Height: t.height, NumObjects: t.numObjects}
	err := t.walk(t.root, func(p *page.Page) error {
		if p.Level == 0 {
			st.DataPages++
		} else {
			st.DirPages++
		}
		if p.ID == t.root {
			st.RootMBR = p.MBR
		}
		return nil
	})
	return st, err
}
