package dataset

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
)

// landAt reports whether p lies on land (always true without Land
// regions).
func (g *Generator) landAt(p geom.Point) bool {
	if len(g.Land) == 0 {
		return true
	}
	for _, l := range g.Land {
		if l.ContainsPoint(p) {
			return true
		}
	}
	return false
}

// validate checks generator sanity.
func (g *Generator) validate() error {
	if g.Space.IsEmpty() || !g.Space.Valid() {
		return fmt.Errorf("dataset %s: invalid space", g.Name)
	}
	if len(g.Clusters) == 0 {
		return fmt.Errorf("dataset %s: no clusters", g.Name)
	}
	for i, c := range g.Clusters {
		if !g.Space.ContainsPoint(c.Center) {
			return fmt.Errorf("dataset %s: cluster %d centre outside space", g.Name, i)
		}
		if c.Weight <= 0 || c.StdX <= 0 || c.StdY <= 0 {
			return fmt.Errorf("dataset %s: cluster %d has non-positive parameters", g.Name, i)
		}
	}
	for i, l := range g.Land {
		if !g.Space.Contains(l) {
			return fmt.Errorf("dataset %s: land region %d outside space", g.Name, i)
		}
	}
	return nil
}

func TestGeneratorsValidate(t *testing.T) {
	for _, g := range []*Generator{USMainland(1), WorldAtlas(1)} {
		if err := g.validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestObjectsDeterministic(t *testing.T) {
	g := USMainland(7)
	a := g.Objects(42, 500)
	b := g.Objects(42, 500)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("object %d differs between runs with same seed", i)
		}
	}
	c := g.Objects(43, 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical objects")
	}
}

func TestObjectsInsideSpaceWithDenseIDs(t *testing.T) {
	for _, g := range []*Generator{USMainland(3), WorldAtlas(3)} {
		objs := g.Objects(5, 2000)
		if len(objs) != 2000 {
			t.Fatalf("%s: %d objects", g.Name, len(objs))
		}
		for i, o := range objs {
			if o.ID != uint64(i+1) {
				t.Fatalf("%s: object %d has ID %d", g.Name, i, o.ID)
			}
			if !o.MBR.Valid() {
				t.Fatalf("%s: object %d has invalid MBR %v", g.Name, o.ID, o.MBR)
			}
			if !g.Space.Contains(o.MBR) {
				t.Fatalf("%s: object %d MBR %v outside space", g.Name, o.ID, o.MBR)
			}
		}
	}
}

func TestObjectsMixPointsAndRects(t *testing.T) {
	g := USMainland(11)
	objs := g.Objects(13, 3000)
	points, rects := 0, 0
	for _, o := range objs {
		if o.MBR.Area() == 0 && o.MBR.Width() == 0 && o.MBR.Height() == 0 {
			points++
		} else {
			rects++
		}
	}
	// PointFrac 0.65 ± noise (rect generation can degenerate to points).
	frac := float64(points) / float64(len(objs))
	if frac < 0.55 || frac > 0.85 {
		t.Errorf("point fraction = %.2f, expected around 0.65", frac)
	}
	if rects == 0 {
		t.Error("no extended objects generated")
	}
}

func TestUSMainlandClusteredDensity(t *testing.T) {
	// The density contrast the spatial policies depend on: a tight box
	// around the heaviest cluster must hold far more objects per unit
	// area than the space as a whole.
	g := USMainland(1)
	objs := g.Objects(2, 30000)
	top := g.Clusters[0]
	box := geom.RectFromCenter(top.Center, 4*top.StdX, 4*top.StdY)
	in := 0
	for _, o := range objs {
		if box.ContainsPoint(o.MBR.Center()) {
			in++
		}
	}
	clusterDensity := float64(in) / box.Area()
	globalDensity := float64(len(objs)) / g.Space.Area()
	if clusterDensity < 5*globalDensity {
		t.Errorf("top-cluster density %.4f not ≫ global %.4f", clusterDensity, globalDensity)
	}
}

func TestUSMainlandMirrorSymmetry(t *testing.T) {
	// The cluster layout must be roughly x-mirror symmetric (the DB1
	// property that keeps the independent distribution on populated
	// ground): for every cluster, some cluster lies near its mirror
	// position.
	g := USMainland(1)
	space := g.Space
	for i, c := range g.Clusters {
		mx := space.MinX + space.MaxX - c.Center.X
		best := math.Inf(1)
		for j, d := range g.Clusters {
			if i == j {
				continue
			}
			dx := d.Center.X - mx
			dy := d.Center.Y - c.Center.Y
			if dist := math.Hypot(dx, dy); dist < best {
				best = dist
			}
		}
		if best > 60 {
			t.Errorf("cluster %d has no mirror partner within 60 units (nearest %.1f)", i, best)
		}
	}
}

func TestWorldAtlasLandProperties(t *testing.T) {
	g := WorldAtlas(1)
	// Land covers a minority of the space.
	landArea := 0.0
	for _, l := range g.Land {
		landArea += l.Area()
	}
	if frac := landArea / g.Space.Area(); frac > 0.45 {
		t.Errorf("land fraction = %.2f, want a minority", frac)
	}
	// Most objects are on land, but some (OceanFrac) are not.
	objs := g.Objects(9, 20000)
	onLand := 0
	for _, o := range objs {
		if g.landAt(o.MBR.Center()) {
			onLand++
		}
	}
	frac := float64(onLand) / float64(len(objs))
	if frac < 0.80 {
		t.Errorf("on-land fraction = %.2f, want ≥ 0.80", frac)
	}
	if frac > 0.999 {
		t.Error("no ocean features generated despite OceanFrac > 0")
	}
}

func TestWorldAtlasFlipHitsOcean(t *testing.T) {
	// The DB2-defining property: x-flipping a land point should usually
	// produce an off-land point (the paper: "most query points meet
	// water").
	g := WorldAtlas(1)
	places := g.Places(3, 4000)
	ocean := 0
	for _, p := range places {
		flipped := geom.Point{X: g.Space.MinX + g.Space.MaxX - p.Loc.X, Y: p.Loc.Y}
		if !g.landAt(flipped) {
			ocean++
		}
	}
	frac := float64(ocean) / float64(len(places))
	if frac < 0.4 {
		t.Errorf("flipped-to-ocean fraction = %.2f, want ≥ 0.4", frac)
	}
	if frac > 0.98 {
		t.Errorf("flipped-to-ocean fraction = %.2f: no land destinations at all", frac)
	}
}

func TestPlaces(t *testing.T) {
	for _, g := range []*Generator{USMainland(5), WorldAtlas(5)} {
		places := g.Places(21, 3000)
		if len(places) != 3000 {
			t.Fatalf("%s: %d places", g.Name, len(places))
		}
		maxPop := 0
		for i, p := range places {
			if !g.Space.ContainsPoint(p.Loc) {
				t.Fatalf("%s: place %d outside space", g.Name, i)
			}
			if p.Population < 10 {
				t.Fatalf("%s: place %d population %d < 10", g.Name, i, p.Population)
			}
			if p.Population > maxPop {
				maxPop = p.Population
			}
		}
		// A heavy tail must exist (big cities).
		if maxPop < 100_000 {
			t.Errorf("%s: max population %d, expected a heavy tail", g.Name, maxPop)
		}
		// Determinism.
		again := g.Places(21, 3000)
		for i := range places {
			if places[i] != again[i] {
				t.Fatalf("%s: place %d differs between runs", g.Name, i)
			}
		}
	}
}

func TestPlacesPopulationCorrelatesWithClusterWeight(t *testing.T) {
	// Big places must concentrate near heavy clusters: the mean
	// population of places close to the top-3 clusters should exceed the
	// global mean.
	g := USMainland(1)
	places := g.Places(8, 8000)
	var topSum, topN, allSum float64
	for _, p := range places {
		allSum += float64(p.Population)
		for _, c := range g.Clusters[:3] {
			if math.Hypot(p.Loc.X-c.Center.X, p.Loc.Y-c.Center.Y) < 5*c.StdX {
				topSum += float64(p.Population)
				topN++
				break
			}
		}
	}
	if topN == 0 {
		t.Fatal("no places near top clusters")
	}
	topMean := topSum / topN
	allMean := allSum / float64(len(places))
	if topMean < 2*allMean {
		t.Errorf("top-cluster mean population %.0f not ≫ global mean %.0f", topMean, allMean)
	}
}

func TestValidateErrors(t *testing.T) {
	g := USMainland(1)
	bad := *g
	bad.Clusters = nil
	if bad.validate() == nil {
		t.Error("no clusters should fail validation")
	}
	bad = *g
	bad.Clusters = append([]Cluster(nil), g.Clusters...)
	bad.Clusters[0].Weight = -1
	if bad.validate() == nil {
		t.Error("negative weight should fail validation")
	}
	bad = *g
	bad.Space = geom.EmptyRect()
	if bad.validate() == nil {
		t.Error("empty space should fail validation")
	}
	w := WorldAtlas(1)
	badW := *w
	badW.Land = append([]geom.Rect(nil), w.Land...)
	badW.Land[0] = geom.NewRect(-100, -100, -50, -50)
	if badW.validate() == nil {
		t.Error("land outside space should fail validation")
	}
}
