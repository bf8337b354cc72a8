//go:build !amd64

package rtree

import (
	"repro/internal/geom"
	"repro/internal/page"
)

// scanNode returns which entries of es meet q, as a bitmask: bit i is set
// exactly when MinX ≤ q.MaxX, q.MinX ≤ MaxX, MinY ≤ q.MaxY and q.MinY ≤
// MaxY all hold for es[i].MBR, so a NaN coordinate fails. Emptiness is
// not asked. es holds at most 64 entries. This is the one path off amd64;
// scan_amd64.s computes the same mask in SSE2.
func scanNode(es []page.Entry, q geom.Rect) uint64 {
	var m uint64
	for i := range es {
		if e := &es[i].MBR; e.MinX <= q.MaxX && q.MinX <= e.MaxX && e.MinY <= q.MaxY && q.MinY <= e.MaxY {
			m |= 1 << i
		}
	}
	return m
}
