// Package page defines the disk-page model shared by the storage layer, the
// buffer manager and the spatial access methods.
//
// Following Brinkhoff (EDBT 2002, §2.1), a spatial database distinguishes
// three categories of pages: directory pages and data pages of the spatial
// access method (SAM), and object pages holding the exact representation of
// spatial objects. Every page contains a set of entries, each with a minimum
// bounding rectangle (MBR); for directory pages the entries reference child
// pages, for data pages they reference objects.
//
// The package also implements the five spatial replacement criteria of §2.3
// (A, EA, M, EM, EO) as functions of a page's precomputed Meta, so that the
// buffer manager never needs to touch entry lists on the eviction path.
package page

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/geom"
)

// ID identifies a page within a store. InvalidID is never allocated.
type ID uint64

// InvalidID is the zero, never-allocated page ID, used as a "no page"
// sentinel (e.g. the parent of the root).
const InvalidID ID = 0

// Type is the category of a page (paper §2.1, Fig. 1).
type Type uint8

const (
	// TypeDirectory is an inner (directory) page of the SAM.
	TypeDirectory Type = iota
	// TypeData is a leaf page of the SAM referencing objects.
	TypeData
	// TypeObject is a page storing exact object representations.
	TypeObject
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeDirectory:
		return "directory"
	case TypeData:
		return "data"
	case TypeObject:
		return "object"
	default:
		return "unknown"
	}
}

// Entry is one slot of a page: an MBR plus a reference. Directory entries
// set Child to the page they point at; data entries set ObjID to the object
// they reference; object-page entries reference object fragments.
type Entry struct {
	MBR   geom.Rect
	Child ID     // child page for directory entries, InvalidID otherwise
	ObjID uint64 // referenced object for data/object entries
}

// Meta is the fixed-size descriptor of a page that the buffer manager keeps
// per frame. All spatial criteria are precomputed here when the page is
// (re)built, so eviction decisions are O(1) per inspected page — the paper
// notes (§2.3) that area and margin cost almost nothing at load time and
// that even the costlier entry overlap is worth storing with the page.
type Meta struct {
	ID    ID
	Type  Type
	Level int // height in the SAM: 0 = data/leaf page, root has the maximum

	MBR geom.Rect // MBR over all entries of the page

	NumEntries     int
	EntryAreaSum   float64 // Σ area(mbr(e)) over entries e — criterion EA
	EntryMarginSum float64 // Σ margin(mbr(e)) — criterion EM
	EntryOverlap   float64 // Σ area(mbr(e) ∩ mbr(f))/2 over ordered pairs e≠f — criterion EO
}

// Page is an in-memory page: its descriptor plus the entry list.
type Page struct {
	// refs, the lease, counts the references to a page whose memory its
	// store reuses (Leased), or is −1 while the store refills it (Claim);
	// nil on every other page. 64 bits: a caller that never releases may
	// take a page billions of times. First: beside the ID a hit reads.
	refs *atomic.Int64

	Meta
	Entries []Entry
}

// Leased returns an empty page whose memory a store may reuse, claimed by
// the caller (see Claim): page and count are one allocation.
func Leased() *Page {
	l := &struct {
		p Page
		n atomic.Int64
	}{}
	l.p.refs = &l.n
	l.n.Store(-1)
	return &l.p
}

// Acquire takes one reference on p. The caller must know that p cannot be
// claimed meanwhile: it holds a reference, or p is resident in a buffer
// whose latch it holds.
func (p *Page) Acquire() {
	if p.refs != nil {
		p.refs.Add(1)
	}
}

// TryAcquire takes n references on p unless a store has claimed it.
func (p *Page) TryAcquire(n int64) bool {
	for p.refs != nil {
		c := p.refs.Load()
		if c < 0 {
			return false
		}
		if p.refs.CompareAndSwap(c, c+n) {
			break
		}
	}
	return true
}

// Release drops one reference; the caller must not touch p afterwards.
// It is a no-op on a page without a lease.
func (p *Page) Release() {
	if p.refs != nil && p.refs.Add(-1) < 0 {
		panic("page: Release of a page that holds no reference") // constant: Release inlines
	}
}

// Claim makes a leased page that nobody references the caller's to
// refill; it fails on a referenced page or one without a lease.
func (p *Page) Claim() bool { return p.refs != nil && p.refs.CompareAndSwap(0, -1) }

// Unclaim ends a claim, handing the page out with refs references.
func (p *Page) Unclaim(refs int64) { p.refs.Store(refs) }

// New returns an empty page of the given type and level with capacity for
// cap entries.
func New(id ID, typ Type, level, capacity int) *Page {
	return &Page{
		Meta: Meta{
			ID:    id,
			Type:  typ,
			Level: level,
			MBR:   geom.EmptyRect(),
		},
		Entries: make([]Entry, 0, capacity),
	}
}

// Recompute rebuilds all derived Meta fields (MBR, entry statistics) from
// the current entry list. Call after any entry mutation. The pairwise
// overlap is O(n²) in the number of entries; with the paper's fan-outs
// (≤ 51) this is at most ~1300 rectangle intersections per page build.
func (p *Page) Recompute() {
	m := &p.Meta
	m.NumEntries = len(p.Entries)
	m.MBR = geom.EmptyRect()
	m.EntryAreaSum = 0
	m.EntryMarginSum = 0
	m.EntryOverlap = 0
	for i := range p.Entries {
		r := p.Entries[i].MBR
		m.MBR = m.MBR.Union(r)
		m.EntryAreaSum += r.Area()
		m.EntryMarginSum += r.Margin()
		for j := 0; j < i; j++ {
			m.EntryOverlap += r.OverlapArea(p.Entries[j].MBR)
		}
	}
}

// RecomputeFast rebuilds the O(n) derived fields (MBR, entry area and
// margin sums) but sets EntryOverlap to zero instead of paying the O(n²)
// pairwise-overlap pass. Index construction uses it on every mutation and
// finishes with one full Recompute sweep per page (the paper makes the same
// trade-off in §2.3: the overlap "is costlier — storing this information on
// the page may be worthwhile").
func (p *Page) RecomputeFast() {
	m := &p.Meta
	m.NumEntries = len(p.Entries)
	m.MBR = geom.EmptyRect()
	m.EntryAreaSum = 0
	m.EntryMarginSum = 0
	m.EntryOverlap = 0
	for i := range p.Entries {
		r := p.Entries[i].MBR
		m.MBR = m.MBR.Union(r)
		m.EntryAreaSum += r.Area()
		m.EntryMarginSum += r.Margin()
	}
}

// Append adds an entry without recomputing derived state; callers batch
// appends and finish with Recompute.
func (p *Page) Append(e Entry) {
	p.Entries = append(p.Entries, e)
}

// Criterion selects one of the paper's five spatial replacement criteria
// (§2.3). For every criterion, a LARGER value means the page should stay in
// the buffer LONGER; the victim is the page with the minimum value.
type Criterion uint8

const (
	// CritA maximizes the area of the page MBR (optimization goal O1).
	CritA Criterion = iota
	// CritEA maximizes the sum of the entry-MBR areas (O1 + O4).
	CritEA
	// CritM maximizes the margin of the page MBR (O3).
	CritM
	// CritEM maximizes the sum of the entry-MBR margins.
	CritEM
	// CritEO maximizes the pairwise overlap between entry MBRs (O2,
	// inverted: high internal overlap marks a page worth keeping).
	CritEO
)

// String implements fmt.Stringer, using the paper's abbreviations.
func (c Criterion) String() string {
	switch c {
	case CritA:
		return "A"
	case CritEA:
		return "EA"
	case CritM:
		return "M"
	case CritEM:
		return "EM"
	case CritEO:
		return "EO"
	default:
		return "unknown"
	}
}

// Criteria lists all five spatial criteria in paper order.
func Criteria() []Criterion {
	return []Criterion{CritA, CritEA, CritM, CritEM, CritEO}
}

// ParseCriterion resolves a paper abbreviation ("A", "EA", "M", "EM",
// "EO", case-insensitive) to its Criterion.
func ParseCriterion(s string) (Criterion, error) {
	for _, c := range Criteria() {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("page: unknown spatial criterion %q (want A, EA, M, EM or EO)", s)
}

// Value returns spatialCrit_c(p) for the page described by m.
func (c Criterion) Value(m Meta) float64 {
	switch c {
	case CritA:
		return m.MBR.Area()
	case CritEA:
		return m.EntryAreaSum
	case CritM:
		return m.MBR.Margin()
	case CritEM:
		return m.EntryMarginSum
	case CritEO:
		return m.EntryOverlap
	default:
		return 0
	}
}

// Clone returns a deep copy of p (the entry slice is copied), without a
// lease.
func (p *Page) Clone() *Page {
	q := *p
	q.refs = nil
	q.Entries = make([]Entry, len(p.Entries))
	copy(q.Entries, p.Entries)
	return &q
}
