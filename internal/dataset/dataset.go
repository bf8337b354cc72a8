// Package dataset generates the synthetic spatial databases standing in
// for the paper's proprietary inputs (USGS GNIS features for database 1, a
// commercial world atlas for database 2, and the USGS places file used to
// derive the similar/intensified query distributions).
//
// The replacement policies under study only observe page geometry (MBRs,
// areas, margins, overlaps) and reference sequences, so the substitution
// must preserve the *distributional* properties the paper's effects rest
// on:
//
//   - database 1 ("US mainland"): strongly clustered, non-uniform density
//     spread across most of the data space — dense regions yield small
//     page MBRs, sparse regions large ones, and an x-flipped query still
//     mostly lands on populated territory;
//   - database 2 ("world atlas"): occupied continents covering a minority
//     of the space with large empty oceans, x-asymmetric, so an x-flipped
//     query usually lands in empty space and is answered from the root;
//   - places: locations correlated with the object clusters, with
//     Zipf-like populations concentrated in the dense clusters, so that
//     √population-weighted sampling intensifies load on small-page
//     regions.
//
// All generators are deterministic in their seed.
package dataset

import (
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Object is a spatial object to be indexed: an ID plus its MBR.
type Object struct {
	ID  uint64
	MBR geom.Rect
}

// Place is a named-place record: a location with a population, the basis
// of the similar and intensified query distributions.
type Place struct {
	Loc        geom.Point
	Population int
}

// Cluster is one Gaussian population centre of a synthetic database.
type Cluster struct {
	Center geom.Point
	StdX   float64
	StdY   float64
	// Weight is the relative share of objects drawn from this cluster.
	Weight float64
}

// Generator describes a synthetic spatial database: a data space, a set of
// clusters, and object-shape parameters.
type Generator struct {
	// Name identifies the database ("us-mainland", "world-atlas").
	Name string
	// Space is the data space; all objects fall inside it.
	Space geom.Rect
	// Land, if non-empty, restricts background objects and places to
	// these regions (the "continents" of database 2).
	Land []geom.Rect
	// Clusters are the population centres.
	Clusters []Cluster
	// BackgroundFrac is the share of objects drawn uniformly from the
	// land (or the whole space if Land is empty) instead of a cluster.
	BackgroundFrac float64
	// OceanFrac is the share of objects drawn uniformly over the WHOLE
	// space, ignoring Land — islands, shipping routes and other sparse
	// off-continent features of an atlas. They make the pages covering
	// the "ocean" few and huge, which is what poisons a pure spatial
	// buffer under the independent query distribution.
	OceanFrac float64
	// PointFrac is the share of objects that are points; the rest are
	// rectangles with exponentially distributed extents.
	PointFrac float64
	// MeanExtent is the mean rectangle extent (per axis).
	MeanExtent float64

	totalWeight float64
}

// USMainland returns the generator standing in for the paper's primary
// database (USGS GNIS features of the US mainland): clusters spread over
// nearly the whole space with varied density, plus uniform background.
func USMainland(seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	space := geom.NewRect(0, 0, 1000, 500)
	g := &Generator{
		Name:           "us-mainland",
		Space:          space,
		BackgroundFrac: 0.12,
		PointFrac:      0.65,
		MeanExtent:     0.8,
	}
	// 24 mirror pairs of metropolitan clusters (48 total). Pairing a
	// cluster with a slightly perturbed partner at the x-mirrored
	// position models the rough east/west-coast symmetry of the US: the
	// paper's independent distribution (x-flipped queries) then still
	// "meets the mainland" in populated areas, as reported for DB1.
	// Weights follow a Zipf-like profile and the heaviest clusters are
	// spatially tight, giving the density contrast that makes hot-region
	// pages small ("areas of intensified interest", §3.5.3).
	const numPairs = 24
	for i := 0; i < numPairs; i++ {
		spread := 1.0 + 3.0*float64(i)/numPairs // later clusters are looser
		base := Cluster{
			Center: geom.Point{
				X: 30 + rng.Float64()*940,
				Y: 30 + rng.Float64()*440,
			},
			StdX:   (2.5 + rng.Float64()*4) * spread,
			StdY:   (2 + rng.Float64()*3.5) * spread,
			Weight: 1 / math.Pow(float64(2*i+1), 1.1),
		}
		mirror := Cluster{
			Center: geom.Point{
				X: space.MinX + space.MaxX - base.Center.X,
				Y: clampF(base.Center.Y+rng.NormFloat64()*3, 30, 470),
			},
			StdX:   base.StdX * (0.8 + rng.Float64()*0.6),
			StdY:   base.StdY * (0.8 + rng.Float64()*0.6),
			Weight: 1 / math.Pow(float64(2*i+2), 1.1),
		}
		g.Clusters = append(g.Clusters, base, mirror)
	}
	g.finish()
	return g
}

// clampF bounds v to [lo, hi].
func clampF(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// WorldAtlas returns the generator standing in for the paper's second
// database (line and area features of a world atlas): continent-shaped
// land regions covering a minority of the space, placed x-asymmetrically
// so that mirroring a land point usually produces an ocean point.
func WorldAtlas(seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	space := geom.NewRect(0, 0, 1000, 500)
	g := &Generator{
		Name:           "world-atlas",
		Space:          space,
		BackgroundFrac: 0.18,
		OceanFrac:      0.10,
		PointFrac:      0.30, // atlas data is mostly lines and polygons
		MeanExtent:     1.2,
		// Five "continents", ~28% of the space, x-asymmetric: the
		// x-mirrored images of these boxes overlap the boxes themselves
		// only marginally.
		Land: []geom.Rect{
			geom.NewRect(20, 230, 170, 470),  // "north-west"
			geom.NewRect(120, 30, 260, 200),  // "south-west"
			geom.NewRect(430, 180, 560, 460), // "central north"
			geom.NewRect(470, 20, 580, 150),  // "central south"
			geom.NewRect(610, 250, 830, 470), // "east"
		},
	}
	// Several clusters per continent, Zipf weights, tight top clusters.
	rank := 1
	for _, land := range g.Land {
		for j := 0; j < 6; j++ {
			spread := 1.0 + 2.5*float64(rank)/30
			c := Cluster{
				Center: geom.Point{
					X: land.MinX + rng.Float64()*land.Width(),
					Y: land.MinY + rng.Float64()*land.Height(),
				},
				StdX:   (2.5 + rng.Float64()*4) * spread,
				StdY:   (2 + rng.Float64()*3.5) * spread,
				Weight: 1 / math.Pow(float64(rank), 1.1),
			}
			g.Clusters = append(g.Clusters, c)
			rank++
		}
	}
	// The x-mirrored positions of the two heaviest clusters get dense
	// "destination" clusters of their own (with a small land patch, like
	// longitude-flipped Chinese coordinates landing in the western US):
	// the independent query distribution then concentrates on dense
	// small-page regions while most other flipped queries hit ocean —
	// the combination behind the paper's DB2 IND result.
	for i := 0; i < 2 && i < len(g.Clusters); i++ {
		src := g.Clusters[i]
		mx := space.MinX + space.MaxX - src.Center.X
		my := src.Center.Y
		patch := geom.RectFromCenter(geom.Point{X: mx, Y: my}, 60, 60).Intersection(space)
		g.Land = append(g.Land, patch)
		g.Clusters = append(g.Clusters, Cluster{
			Center: geom.Point{X: mx, Y: my},
			StdX:   2 + rng.Float64()*1.5,
			StdY:   1.5 + rng.Float64()*1.5,
			Weight: 1 / math.Pow(float64(6+2*i), 1.1),
		})
	}
	g.finish()
	return g
}

// finish precomputes derived state.
func (g *Generator) finish() {
	g.totalWeight = 0
	for _, c := range g.Clusters {
		g.totalWeight += c.Weight
	}
}

// pickCluster samples a cluster index proportionally to weight.
func (g *Generator) pickCluster(rng *rand.Rand) int {
	x := rng.Float64() * g.totalWeight
	for i, c := range g.Clusters {
		x -= c.Weight
		if x <= 0 {
			return i
		}
	}
	return len(g.Clusters) - 1
}

// samplePoint draws an object location: from a weighted cluster, or
// uniformly from the land with probability BackgroundFrac.
func (g *Generator) samplePoint(rng *rand.Rand) geom.Point {
	u := rng.Float64()
	if u < g.OceanFrac {
		return geom.Point{
			X: g.Space.MinX + rng.Float64()*g.Space.Width(),
			Y: g.Space.MinY + rng.Float64()*g.Space.Height(),
		}
	}
	if u < g.OceanFrac+g.BackgroundFrac {
		return g.sampleUniformLand(rng)
	}
	c := g.Clusters[g.pickCluster(rng)]
	for tries := 0; tries < 64; tries++ {
		p := geom.Point{
			X: c.Center.X + rng.NormFloat64()*c.StdX,
			Y: c.Center.Y + rng.NormFloat64()*c.StdY,
		}
		if g.Space.ContainsPoint(p) {
			return p
		}
	}
	return c.Center
}

// sampleUniformLand draws a uniform point on land.
func (g *Generator) sampleUniformLand(rng *rand.Rand) geom.Point {
	if len(g.Land) == 0 {
		return geom.Point{
			X: g.Space.MinX + rng.Float64()*g.Space.Width(),
			Y: g.Space.MinY + rng.Float64()*g.Space.Height(),
		}
	}
	// Pick a land region by area, then a uniform point inside it.
	total := 0.0
	for _, l := range g.Land {
		total += l.Area()
	}
	x := rng.Float64() * total
	region := g.Land[len(g.Land)-1]
	for _, l := range g.Land {
		x -= l.Area()
		if x <= 0 {
			region = l
			break
		}
	}
	return geom.Point{
		X: region.MinX + rng.Float64()*region.Width(),
		Y: region.MinY + rng.Float64()*region.Height(),
	}
}

// Objects generates n objects. Object IDs are 1..n.
func (g *Generator) Objects(seed int64, n int) []Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]Object, n)
	for i := range objs {
		p := g.samplePoint(rng)
		var r geom.Rect
		if rng.Float64() < g.PointFrac {
			r = geom.RectFromPoint(p)
		} else {
			w := rng.ExpFloat64() * g.MeanExtent
			h := rng.ExpFloat64() * g.MeanExtent
			r = geom.RectFromCenter(p, w, h).Intersection(g.Space)
			if r.IsEmpty() {
				r = geom.RectFromPoint(p)
			}
		}
		objs[i] = Object{ID: uint64(i + 1), MBR: r}
	}
	return objs
}

// Places generates n place records. Locations follow the cluster layout
// (with a small uniform share); populations are Pareto-distributed and
// scaled by the weight of the cluster a place belongs to, so big places
// concentrate in dense regions.
func (g *Generator) Places(seed int64, n int) []Place {
	rng := rand.New(rand.NewSource(seed))
	places := make([]Place, n)
	maxW := 0.0
	for _, c := range g.Clusters {
		if c.Weight > maxW {
			maxW = c.Weight
		}
	}
	for i := range places {
		var loc geom.Point
		weight := 0.3 // background places are small
		if rng.Float64() < 0.12 {
			loc = g.sampleUniformLand(rng)
		} else {
			ci := g.pickCluster(rng)
			c := g.Clusters[ci]
			for tries := 0; ; tries++ {
				loc = geom.Point{
					X: c.Center.X + rng.NormFloat64()*c.StdX,
					Y: c.Center.Y + rng.NormFloat64()*c.StdY,
				}
				if g.Space.ContainsPoint(loc) || tries >= 64 {
					break
				}
			}
			if !g.Space.ContainsPoint(loc) {
				loc = c.Center
			}
			weight = c.Weight / maxW
		}
		// Pareto tail scaled by the squared cluster weight: big cities
		// concentrate in the densest clusters, so the intensified
		// distribution (∝ √population) hits small-page regions hardest.
		u := rng.Float64()
		if u < 1e-6 {
			u = 1e-6
		}
		pop := int(10_000_000 * weight * weight / u)
		if pop > 20_000_000 {
			pop = 20_000_000
		}
		if pop < 10 {
			pop = 10
		}
		places[i] = Place{Loc: loc, Population: pop}
	}
	return places
}

// ShapedObject pairs an indexable object (ID + MBR) with its exact
// polyline representation, for the object-page/filter-refine layer.
type ShapedObject struct {
	Object
	Shape geom.Polyline
}

// ShapedObjects generates n objects with exact representations: point
// objects become single-vertex polylines; extended objects become random
// walks of 2–9 vertices inside their extent. Object MBRs are derived from
// the shapes, so indexing the Object part and refining against Shape is
// consistent. IDs are 1..n.
func (g *Generator) ShapedObjects(seed int64, n int) []ShapedObject {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ShapedObject, n)
	for i := range out {
		p := g.samplePoint(rng)
		var shape geom.Polyline
		if rng.Float64() < g.PointFrac {
			shape = geom.Polyline{p}
		} else {
			w := rng.ExpFloat64() * g.MeanExtent * 2
			h := rng.ExpFloat64() * g.MeanExtent * 2
			verts := 2 + rng.Intn(8)
			shape = make(geom.Polyline, verts)
			for v := range shape {
				shape[v] = geom.Point{
					X: clampF(p.X+(rng.Float64()-0.5)*w, g.Space.MinX, g.Space.MaxX),
					Y: clampF(p.Y+(rng.Float64()-0.5)*h, g.Space.MinY, g.Space.MaxY),
				}
			}
		}
		out[i] = ShapedObject{
			Object: Object{ID: uint64(i + 1), MBR: shape.MBR()},
			Shape:  shape,
		}
	}
	return out
}
