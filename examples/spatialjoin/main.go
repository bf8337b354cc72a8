// Spatialjoin exercises the paper's future-work item 2: the influence of
// page-replacement strategies on spatial joins. Two map layers (a
// "roads"-like layer and a "places"-like layer) are joined by
// synchronized R*-tree traversal; the join's page accesses run through a
// shared buffer under different replacement policies.
//
//	go run ./examples/spatialjoin
package main

import (
	"fmt"
	"log"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildLayer indexes objects into a fresh tree over its own store.
func buildLayer(objs []dataset.Object) (*rtree.Tree, *storage.MemStore, error) {
	store := storage.NewMemStore()
	tree, err := rtree.New(store, rtree.DefaultParams())
	if err != nil {
		return nil, nil, err
	}
	for _, o := range objs {
		if err := tree.Insert(o.ID, o.MBR); err != nil {
			return nil, nil, err
		}
	}
	if err := tree.FinalizeStats(); err != nil {
		return nil, nil, err
	}
	store.ResetStats()
	return tree, store, nil
}

func main() {
	gen := dataset.USMainland(1)
	// Two layers over the same space with different seeds: their objects
	// cluster in the same regions (as map layers do) but differ.
	left, leftStore, err := buildLayer(gen.Objects(2, 40_000))
	if err != nil {
		log.Fatal(err)
	}
	right, rightStore, err := buildLayer(gen.Objects(3, 30_000))
	if err != nil {
		log.Fatal(err)
	}
	ls, _ := left.Stats()
	rs, _ := right.Stats()
	fmt.Printf("left layer: %d pages; right layer: %d pages\n", ls.TotalPages(), rs.TotalPages())

	// A small shared budget per side: joins revisit directory pages of
	// both trees heavily, so the policy matters.
	framesL := ls.TotalPages() * 2 / 100
	framesR := rs.TotalPages() * 2 / 100
	fmt.Printf("buffers: %d + %d frames (2%% of each layer)\n\n", framesL, framesR)

	mkPolicy := map[string]func(frames int) buffer.Policy{
		"LRU":   func(int) buffer.Policy { return core.NewLRU() },
		"LRU-2": func(int) buffer.Policy { return core.NewLRUK(2) },
		"A":     func(int) buffer.Policy { return core.NewSpatial(page.CritA) },
		"ASB":   func(f int) buffer.Policy { return core.NewASB(f, core.DefaultASBOptions()) },
	}
	order := []string{"LRU", "LRU-2", "A", "ASB"}
	var lruIO uint64
	for _, name := range order {
		bufL, err := buffer.NewEngine(leftStore, mkPolicy[name](framesL), framesL)
		if err != nil {
			log.Fatal(err)
		}
		bufR, err := buffer.NewEngine(rightStore, mkPolicy[name](framesR), framesR)
		if err != nil {
			log.Fatal(err)
		}
		pairs := 0
		err = rtree.Join(left, right, bufL, bufR,
			buffer.AccessContext{QueryID: 1},
			func(rtree.JoinPair) bool { pairs++; return true })
		if err != nil {
			log.Fatal(err)
		}
		io := bufL.Stats().DiskReads() + bufR.Stats().DiskReads()
		if name == "LRU" {
			lruIO = io
		}
		gain := (float64(lruIO)/float64(io) - 1) * 100
		fmt.Printf("%-6s %9d intersecting pairs, %8d disk accesses, gain vs LRU %+.1f%%\n",
			name, pairs, io, gain)
	}
}
