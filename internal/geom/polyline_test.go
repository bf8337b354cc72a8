package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestPolylineMBR(t *testing.T) {
	if !(Polyline{}).MBR().IsEmpty() {
		t.Error("empty polyline should have empty MBR")
	}
	p := Polyline{{X: 1, Y: 2}, {X: -3, Y: 5}, {X: 2, Y: 0}}
	want := NewRect(-3, 0, 2, 5)
	if got := p.MBR(); got != want {
		t.Errorf("MBR = %v, want %v", got, want)
	}
}

func TestPolylineSegmentsAndLength(t *testing.T) {
	p := Polyline{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 3, Y: 10}}
	if p.NumSegments() != 2 {
		t.Errorf("NumSegments = %d", p.NumSegments())
	}
	a, b := p.Segment(1)
	if a != (Point{X: 3, Y: 4}) || b != (Point{X: 3, Y: 10}) {
		t.Errorf("Segment(1) = %v, %v", a, b)
	}
	if (Polyline{{X: 1, Y: 1}}).NumSegments() != 0 {
		t.Error("single vertex has no segments")
	}
}

func TestPolylineIntersectsRect(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	tests := []struct {
		name string
		p    Polyline
		want bool
	}{
		{"empty", Polyline{}, false},
		{"vertex inside", Polyline{{X: 5, Y: 5}}, true},
		{"vertex outside", Polyline{{X: 15, Y: 5}}, false},
		{"segment inside", Polyline{{X: 1, Y: 1}, {X: 2, Y: 2}}, true},
		{"segment crossing", Polyline{{X: -5, Y: 5}, {X: 15, Y: 5}}, true},
		{"segment crossing corner region", Polyline{{X: -1, Y: 5}, {X: 5, Y: -1}}, true},
		{"segment outside", Polyline{{X: -5, Y: -5}, {X: -1, Y: -1}}, false},
		{"segment passing by", Polyline{{X: -5, Y: 12}, {X: 15, Y: 12}}, false},
		{"diagonal clipping corner", Polyline{{X: 11, Y: 5}, {X: 5, Y: 11}}, true},
		{"diagonal missing corner", Polyline{{X: 11, Y: 10.5}, {X: 10.5, Y: 11}}, false},
		{"touching edge", Polyline{{X: -5, Y: 10}, {X: 15, Y: 10}}, true},
		{"endpoint on boundary", Polyline{{X: 10, Y: 10}, {X: 20, Y: 20}}, true},
		{"multi-segment detour", Polyline{{X: -5, Y: -5}, {X: -5, Y: 15}, {X: 5, Y: 5}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.IntersectsRect(r); got != tt.want {
				t.Errorf("IntersectsRect = %v, want %v", got, tt.want)
			}
		})
	}
	if (Polyline{{X: 1, Y: 1}, {X: 2, Y: 2}}).IntersectsRect(EmptyRect()) {
		t.Error("nothing intersects the empty rect")
	}
}

// TestPolylineIntersectsRectMatchesSampling cross-checks the clipping
// test against dense point sampling along random segments.
func TestPolylineIntersectsRectMatchesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := NewRect(20, 20, 60, 50)
	for trial := 0; trial < 2000; trial++ {
		a := Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		b := Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		p := Polyline{a, b}
		got := p.IntersectsRect(r)
		// Sample densely; sampling can only under-approximate, so a
		// sampled hit with got=false is a definite bug, while got=true
		// with no sampled hit is verified with a finer scan.
		hit := false
		const steps = 400
		for i := 0; i <= steps; i++ {
			tt := float64(i) / steps
			q := Point{X: a.X + tt*(b.X-a.X), Y: a.Y + tt*(b.Y-a.Y)}
			if r.ContainsPoint(q) {
				hit = true
				break
			}
		}
		if hit && !got {
			t.Fatalf("segment %v-%v: sampling hit but IntersectsRect false", a, b)
		}
		if got && !hit {
			// Tangential contact can slip through coarse sampling; a
			// near-miss within 0.3 of the boundary is acceptable.
			d := math.Min(
				math.Min(segPointDist(a, b, Point{X: r.MinX, Y: r.MinY}), segPointDist(a, b, Point{X: r.MaxX, Y: r.MinY})),
				math.Min(segPointDist(a, b, Point{X: r.MinX, Y: r.MaxY}), segPointDist(a, b, Point{X: r.MaxX, Y: r.MaxY})),
			)
			if d > 0.3 {
				t.Fatalf("segment %v-%v: IntersectsRect true but sampling found nothing (corner dist %g)", a, b, d)
			}
		}
	}
}

// segPointDist returns the distance from point q to segment ab.
func segPointDist(a, b, q Point) float64 {
	dx, dy := b.X-a.X, b.Y-a.Y
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return math.Hypot(q.X-a.X, q.Y-a.Y)
	}
	t := ((q.X-a.X)*dx + (q.Y-a.Y)*dy) / l2
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return math.Hypot(q.X-(a.X+t*dx), q.Y-(a.Y+t*dy))
}
