// Mapviewer simulates an interactive map client: a user pans and zooms
// across a map, producing overlapping window queries with strong but
// shifting locality. The example compares the I/O cost of the same
// session under LRU, the pure spatial strategy A, LRU-2 and the
// adaptable spatial buffer.
//
//	go run ./examples/mapviewer
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// session generates a panning/zooming viewport trajectory: mostly small
// steps, occasional jumps to another region, occasional zoom changes.
func session(space geom.Rect, steps int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	pos := space.Center()
	zoom := 40.0 // viewport half-width
	var out []geom.Rect
	for i := 0; i < steps; i++ {
		switch {
		case rng.Float64() < 0.04: // jump to a new region
			pos = geom.Point{
				X: space.MinX + rng.Float64()*space.Width(),
				Y: space.MinY + rng.Float64()*space.Height(),
			}
		case rng.Float64() < 0.10: // zoom in/out
			zoom *= []float64{0.5, 2}[rng.Intn(2)]
			if zoom < 10 {
				zoom = 10
			}
			if zoom > 120 {
				zoom = 120
			}
		default: // pan
			pos.X += rng.NormFloat64() * zoom / 3
			pos.Y += rng.NormFloat64() * zoom / 5
		}
		vp := geom.RectFromCenter(pos, 2*zoom, zoom).Intersection(space)
		if vp.IsEmpty() {
			pos = space.Center()
			continue
		}
		out = append(out, vp)
	}
	return out
}

func main() {
	gen := dataset.USMainland(1)
	objects := gen.Objects(2, 60_000)
	store := storage.NewMemStore()
	tree, err := rtree.New(store, rtree.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range objects {
		if err := tree.Insert(o.ID, o.MBR); err != nil {
			log.Fatal(err)
		}
	}
	if err := tree.FinalizeStats(); err != nil {
		log.Fatal(err)
	}
	stats, err := tree.Stats()
	if err != nil {
		log.Fatal(err)
	}
	viewports := session(gen.Space, 3000, 7)
	fmt.Printf("map with %d pages; panning session of %d viewport queries\n",
		stats.TotalPages(), len(viewports))
	frames := stats.TotalPages() * 2 / 100
	fmt.Printf("buffer: %d frames (2%% of the map)\n\n", frames)

	policies := []buffer.Policy{
		core.NewLRU(),
		core.NewLRUK(2),
		core.NewSpatial(page.CritA),
		core.NewASB(frames, core.DefaultASBOptions()),
	}
	var lruAccesses uint64
	for _, pol := range policies {
		store.ResetStats()
		buf, err := buffer.NewEngine(store, pol, frames)
		if err != nil {
			log.Fatal(err)
		}
		results := 0
		for i, vp := range viewports {
			ctx := buffer.AccessContext{QueryID: uint64(i + 1)}
			err := tree.Search(buf, ctx, vp, func(page.Entry) bool {
				results++
				return true
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		bs := buf.Stats()
		if pol.Name() == "LRU" {
			lruAccesses = bs.DiskReads()
		}
		gain := 0.0
		if bs.DiskReads() > 0 {
			gain = (float64(lruAccesses)/float64(bs.DiskReads()) - 1) * 100
		}
		fmt.Printf("%-6s %8d disk accesses  %5.1f%% hit ratio  gain vs LRU %+.1f%%\n",
			pol.Name(), bs.DiskReads(), bs.HitRatio()*100, gain)
	}
}
