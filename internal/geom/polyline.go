package geom

// Polyline is an exact object representation: a connected sequence of
// vertices. The paper's storage architecture (Brinkhoff et al., SSD 1993)
// keeps such exact representations on separate object pages; queries
// first filter on MBRs in the spatial access method and then refine
// against the exact geometry fetched from those pages.
type Polyline []Point

// MBR returns the bounding rectangle of the polyline (empty for no
// vertices).
func (p Polyline) MBR() Rect {
	out := EmptyRect()
	for _, v := range p {
		out = out.UnionPoint(v)
	}
	return out
}

// NumSegments returns the number of line segments.
func (p Polyline) NumSegments() int {
	if len(p) < 2 {
		return 0
	}
	return len(p) - 1
}

// Segment returns the endpoints of segment i.
func (p Polyline) Segment(i int) (Point, Point) {
	return p[i], p[i+1]
}

// IntersectsRect reports whether any part of the polyline lies inside or
// crosses the rectangle — the refinement predicate of a window query. A
// single-vertex polyline intersects iff the vertex is inside.
func (p Polyline) IntersectsRect(r Rect) bool {
	if r.IsEmpty() || len(p) == 0 {
		return false
	}
	if len(p) == 1 {
		return r.ContainsPoint(p[0])
	}
	for i := 0; i < p.NumSegments(); i++ {
		a, b := p.Segment(i)
		if segmentIntersectsRect(a, b, r) {
			return true
		}
	}
	return false
}

// segmentIntersectsRect reports whether segment ab intersects the closed
// rectangle r, via the Cohen–Sutherland style slab clipping test.
func segmentIntersectsRect(a, b Point, r Rect) bool {
	// Trivial accept.
	if r.ContainsPoint(a) || r.ContainsPoint(b) {
		return true
	}
	// Clip the parametric segment a + t(b−a), t ∈ [0,1], against the
	// four slabs; a non-empty parameter interval means intersection.
	t0, t1 := 0.0, 1.0
	dx, dy := b.X-a.X, b.Y-a.Y
	clip := func(p, q float64) bool {
		// Clip against p·t ≤ q.
		if p == 0 {
			return q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}
	if !clip(-dx, a.X-r.MinX) {
		return false
	}
	if !clip(dx, r.MaxX-a.X) {
		return false
	}
	if !clip(-dy, a.Y-r.MinY) {
		return false
	}
	if !clip(dy, r.MaxY-a.Y) {
		return false
	}
	return t0 <= t1
}
