// Package objstore implements the object pages of the paper's storage
// architecture (its reference [2], Brinkhoff et al., SSD 1993): pages of
// type page.TypeObject holding the *exact representations* of spatial
// objects, separate from the spatial access method.
//
// An object's exact representation is a polyline; it is stored as one
// entry per segment ("the entries may correspond to the spatial objects
// (or parts of them) stored in the page", paper §2.3), each entry carrying
// the segment's MBR and the owning object ID. That makes the spatial
// replacement criteria — and the type/priority policies, which drop
// object pages first — work on object pages without any special casing.
//
// Queries follow the filter/refine pattern: the SAM filters candidates by
// MBR; the refinement step fetches the candidate's object page(s) through
// a (typically separate, as in the paper) buffer and tests the exact
// geometry.
package objstore

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ErrUnknownObject is returned when fetching an object that was never
// stored.
var ErrUnknownObject = errors.New("objstore: unknown object")

// ExactObject is an object with its exact representation.
type ExactObject struct {
	ID    uint64
	Shape geom.Polyline
}

// MBR returns the bounding rectangle of the object's shape.
func (o ExactObject) MBR() geom.Rect { return o.Shape.MBR() }

// Store maps object IDs to the object pages holding their segments.
// Objects are packed in ID order; one object may span several pages if it
// has many segments, and small objects share pages.
type Store struct {
	pages storage.Store
	// locs maps an object ID to the pages holding its segments (in
	// order). This directory is small (a few words per object) and lives
	// in memory, like a clustering index.
	locs map[uint64][]page.ID
	// vertices maps (objID, pageID) reconstruction: segments are stored
	// as entries; the polyline is rebuilt from segment order.
	count int
}

// Build packs the objects into object pages on the given page store and
// returns the directory. maxEntries bounds segments per page (≤
// storage.MaxEntries to stay serializable); 0 means the paper's data-page
// capacity, 42.
func Build(pages storage.Store, objs []ExactObject, maxEntries int) (*Store, error) {
	if pages == nil {
		return nil, errors.New("objstore: nil page store")
	}
	if maxEntries <= 0 {
		maxEntries = 42
	}
	if maxEntries > storage.MaxEntries {
		return nil, fmt.Errorf("objstore: maxEntries %d exceeds serializable limit %d",
			maxEntries, storage.MaxEntries)
	}
	s := &Store{pages: pages, locs: make(map[uint64][]page.ID, len(objs))}

	var cur *page.Page
	flush := func() error {
		if cur == nil || len(cur.Entries) == 0 {
			return nil
		}
		cur.Recompute()
		if err := pages.Write(cur); err != nil {
			return err
		}
		cur = nil
		return nil
	}
	newPage := func() {
		id := pages.Allocate()
		cur = page.New(id, page.TypeObject, 0, maxEntries)
	}

	for _, o := range objs {
		if len(o.Shape) == 0 {
			return nil, fmt.Errorf("objstore: object %d has no shape", o.ID)
		}
		if _, dup := s.locs[o.ID]; dup {
			return nil, fmt.Errorf("objstore: duplicate object %d", o.ID)
		}
		segs := o.Shape.NumSegments()
		if segs == 0 {
			segs = 1 // point objects occupy one degenerate segment entry
		}
		for seg := 0; seg < segs; seg++ {
			if cur == nil || len(cur.Entries) >= maxEntries {
				if err := flush(); err != nil {
					return nil, err
				}
				newPage()
			}
			var mbr geom.Rect
			if o.Shape.NumSegments() == 0 {
				mbr = geom.RectFromPoint(o.Shape[0])
			} else {
				a, b := o.Shape.Segment(seg)
				mbr = geom.RectFromPoint(a).UnionPoint(b)
			}
			cur.Append(page.Entry{MBR: mbr, ObjID: o.ID})
			if ids := s.locs[o.ID]; len(ids) == 0 || ids[len(ids)-1] != cur.ID {
				s.locs[o.ID] = append(ids, cur.ID)
			}
		}
		s.count++
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// NumObjects returns the number of stored objects.
func (s *Store) NumObjects() int { return s.count }

// NumPages returns the number of object pages referenced by the
// directory.
func (s *Store) NumPages() int {
	seen := make(map[page.ID]bool)
	for _, ids := range s.locs {
		for _, id := range ids {
			seen[id] = true
		}
	}
	return len(seen)
}

// Pages returns the object-page IDs an object occupies (nil if unknown).
func (s *Store) Pages(objID uint64) []page.ID { return s.locs[objID] }

// FetchSegments reads the object's segment MBRs through rd (so a buffer
// policy pays the I/O) and returns them in storage order.
func (s *Store) FetchSegments(rd rtree.Reader, ctx buffer.AccessContext, objID uint64) ([]geom.Rect, error) {
	ids, ok := s.locs[objID]
	if !ok {
		return nil, fmt.Errorf("objstore: fetch %d: %w", objID, ErrUnknownObject)
	}
	var segs []geom.Rect
	for _, id := range ids {
		p, err := rd.Get(id, ctx)
		if err != nil {
			return nil, err
		}
		for _, e := range p.Entries {
			if e.ObjID == objID {
				segs = append(segs, e.MBR)
			}
		}
	}
	return segs, nil
}

// Refine reports whether the object's exact representation intersects the
// window, fetching object pages through rd. The per-segment test uses the
// segment MBR, which for a straight segment equals the segment's own hull
// intersected test — exact for axis-aligned windows up to the segment's
// diagonal direction; to stay fully exact the caller keeps shapes, so
// Refine additionally verifies with the polyline when provided.
func (s *Store) Refine(rd rtree.Reader, ctx buffer.AccessContext, objID uint64, window geom.Rect, shape geom.Polyline) (bool, error) {
	segs, err := s.FetchSegments(rd, ctx, objID)
	if err != nil {
		return false, err
	}
	hit := false
	for _, m := range segs {
		if m.Intersects(window) {
			hit = true
			break
		}
	}
	if !hit {
		return false, nil
	}
	if shape != nil {
		return shape.IntersectsRect(window), nil
	}
	return true, nil
}
