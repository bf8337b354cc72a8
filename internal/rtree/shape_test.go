package rtree_test

// A committed golden of the tree's shape: every choice ChooseSubtree,
// forced reinsertion, the R* split and CondenseTree make ends up in which
// entry sits on which page in which order, so a digest over every
// reachable page pins them all. The figures depend on the shape (a page's
// MBR is its replacement criterion), which is why a change that is meant
// to leave the algorithm alone must leave testdata/shape.golden alone.
// Regenerate — only for a deliberate change of the algorithm — with
//
//	go test ./internal/rtree/ -run TestTreeShapeGolden -update

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/page"
	"repro/internal/rtree"
)

var updateShape = flag.Bool("update", false, "rewrite testdata/shape.golden from this run")

const shapePath = "testdata/shape.golden"

// shapeDigest hashes ID, level, type and, entry by entry in page order,
// the MBR's bits, the child and the object ID of every reachable page in
// depth-first order.
func shapeDigest(t *testing.T, tree *rtree.Tree) string {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	pages := 0
	err := tree.Walk(func(p *page.Page) error {
		pages++
		put(uint64(p.ID))
		put(uint64(p.Level))
		put(uint64(p.Type))
		put(uint64(len(p.Entries)))
		for _, e := range p.Entries {
			put(math.Float64bits(e.MBR.MinX))
			put(math.Float64bits(e.MBR.MinY))
			put(math.Float64bits(e.MBR.MaxX))
			put(math.Float64bits(e.MBR.MaxY))
			put(uint64(e.Child))
			put(e.ObjID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("height=%d pages=%d objects=%d fnv64a=%016x",
		tree.Height(), pages, tree.NumObjects(), h.Sum64())
}

// TestTreeShapeGolden builds the bench database (DB1, 24 000 objects,
// seed 1) by insertion, then deletes 2 000 objects and re-inserts them
// through a buffered pool, and compares the shape after each stage with
// the committed digests.
func TestTreeShapeGolden(t *testing.T) {
	db, err := experiment.Build(1, experiment.Options{Objects: 24_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tree := db.Tree
	got := "built   " + shapeDigest(t, tree) + "\n"

	pool, err := buffer.NewEngine(db.Store, core.NewLRU(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.UseBuffer(pool, buffer.AccessContext{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	victims := rng.Perm(len(db.Objects))[:2_000]
	for i, v := range victims {
		if err := tree.UseBufferContext(buffer.AccessContext{QueryID: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		o := db.Objects[v]
		found, err := tree.Delete(o.ID, o.MBR)
		if err != nil || !found {
			t.Fatalf("delete object %d: found=%t err=%v", o.ID, found, err)
		}
	}
	for i, v := range victims {
		if err := tree.UseBufferContext(buffer.AccessContext{QueryID: uint64(len(victims) + i + 1)}); err != nil {
			t.Fatal(err)
		}
		o := db.Objects[v]
		if err := tree.Insert(o.ID, o.MBR); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.UnbufferedIO()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	got += "updated " + shapeDigest(t, tree) + "\n"

	if *updateShape {
		if err := os.WriteFile(shapePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(shapePath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("tree shape changed\n got:\n%s want:\n%s", got, want)
	}
}
