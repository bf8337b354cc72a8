// Package geom provides the two-dimensional geometric primitives used
// throughout the spatial database: points and axis-aligned rectangles
// (minimum bounding rectangles, MBRs).
//
// The spatial page-replacement strategies of Brinkhoff (EDBT 2002) rank
// buffer pages by geometric properties of their content — area, margin
// (perimeter) and pairwise overlap of entry MBRs — all of which are defined
// here. The same primitives back the R*-tree substrate.
//
// Rectangles are closed intervals [MinX,MaxX] × [MinY,MaxY]. A rectangle
// with MinX > MaxX or MinY > MaxY is "empty"; the canonical empty rectangle
// is returned by EmptyRect and is the identity element of Union.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the two-dimensional data space.
type Point struct {
	X, Y float64
}

// Rect is an axis-aligned rectangle (an MBR). The zero value is the
// degenerate rectangle covering only the origin; use EmptyRect for the
// identity element of Union.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the canonical empty rectangle: the identity of Union
// and a rectangle that intersects nothing, contains nothing and has zero
// area and margin.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// NewRect returns the rectangle spanning the two corner points in either
// order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{
		MinX: min(x1, x2), MinY: min(y1, y2),
		MaxX: max(x1, x2), MaxY: max(y1, y2),
	}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// RectFromCenter returns the rectangle of the given width and height
// centred on c. Negative extents are treated as zero.
func RectFromCenter(c Point, width, height float64) Rect {
	w := math.Max(width, 0) / 2
	h := math.Max(height, 0) / 2
	return Rect{MinX: c.X - w, MinY: c.Y - h, MaxX: c.X + w, MaxY: c.Y + h}
}

// IsEmpty reports whether r is empty (covers no point).
func (r Rect) IsEmpty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// Width returns the extent of r along the x-axis, or 0 if r is empty.
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the extent of r along the y-axis, or 0 if r is empty.
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r. Degenerate rectangles (points, segments)
// have area 0, as do empty rectangles.
func (r Rect) Area() float64 {
	return r.Width() * r.Height()
}

// Margin returns the perimeter of r (twice the sum of its extents), the
// criterion of the M and EM replacement strategies and of the R*-tree
// split algorithm. Empty rectangles have margin 0.
func (r Rect) Margin() float64 {
	return 2 * (r.Width() + r.Height())
}

// Center returns the midpoint of r. The centre of an empty rectangle is
// the origin.
func (r Rect) Center() Point {
	if r.IsEmpty() {
		return Point{}
	}
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Union returns the smallest rectangle covering both r and s. EmptyRect is
// the identity element.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: min(r.MinX, s.MinX), MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX), MaxY: max(r.MaxY, s.MaxY),
	}
}

// UnionPoint returns the smallest rectangle covering r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return r.Union(RectFromPoint(p))
}

// Intersects reports whether r and s share at least one point. Touching
// boundaries count as intersecting (rectangles are closed).
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the common part of r and s, or an empty rectangle
// if they do not intersect.
func (r Rect) Intersection(s Rect) Rect {
	if !r.Intersects(s) {
		return EmptyRect()
	}
	return Rect{
		MinX: max(r.MinX, s.MinX), MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX), MaxY: min(r.MaxY, s.MaxY),
	}
}

// OverlapArea returns the area of the intersection of r and s; 0 if they
// do not overlap (or touch only on a boundary).
func (r Rect) OverlapArea(s Rect) float64 {
	if !r.Intersects(s) {
		return 0
	}
	return (min(r.MaxX, s.MaxX) - max(r.MinX, s.MinX)) * (min(r.MaxY, s.MaxY) - max(r.MinY, s.MinY))
}

// Contains reports whether s lies completely inside r. Every non-empty
// rectangle contains the empty rectangle.
func (r Rect) Contains(s Rect) bool {
	if r.IsEmpty() {
		return false
	}
	if s.IsEmpty() {
		return true
	}
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// ContainsPoint reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsPoint(p Point) bool {
	if r.IsEmpty() {
		return false
	}
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// Enlargement returns the growth in area needed for r to also cover s:
// area(r ∪ s) − area(r). It is the ChooseSubtree criterion of the R-tree
// family.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Equal reports whether r and s describe the same point set. All empty
// rectangles are equal to each other.
func (r Rect) Equal(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return r.IsEmpty() && s.IsEmpty()
	}
	return r == s
}

// Valid reports whether all coordinates of r are finite and ordered.
// Empty rectangles are not valid.
func (r Rect) Valid() bool {
	for _, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return !r.IsEmpty()
}

// FlipX mirrors r along the vertical centre line of space: the construction
// of the paper's "independent" query distribution (IND-*), where an object
// in the west of the map queries the east and vice versa.
func (r Rect) FlipX(space Rect) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{
		MinX: space.MinX + space.MaxX - r.MaxX,
		MinY: r.MinY,
		MaxX: space.MinX + space.MaxX - r.MinX,
		MaxY: r.MaxY,
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	if r.IsEmpty() {
		return "Rect(empty)"
	}
	return fmt.Sprintf("Rect(%g,%g — %g,%g)", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%g, %g)", p.X, p.Y)
}

// MBR returns the minimum bounding rectangle of the given rectangles.
// MBR of no rectangles is the empty rectangle.
func MBR(rects ...Rect) Rect {
	out := EmptyRect()
	for _, r := range rects {
		out = out.Union(r)
	}
	return out
}
