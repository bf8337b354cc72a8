package rtree

import (
	"repro/internal/geom"
	"repro/internal/page"
)

// scanNode returns which entries of es meet q, as a bitmask: bit i is set
// exactly when the closed intervals of es[i].MBR and q overlap on both
// axes, that is when MinX ≤ q.MaxX, q.MinX ≤ MaxX, MinY ≤ q.MaxY and
// q.MinY ≤ MaxY all hold. A NaN coordinate fails its comparison. Neither
// rectangle's emptiness is asked: Search and Join test the query's once
// and an entry's only on a hit. es holds at most 64 entries; bits at and
// above len(es) are zero.
//
// On amd64 it is scan_amd64.s: two entries per step in SSE2 (DESIGN.md
// §5a.5). scan_other.go is the same function in Go for every other
// architecture.
//
//go:noescape
func scanNode(es []page.Entry, q geom.Rect) uint64
