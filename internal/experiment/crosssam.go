package experiment

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/quadtree"
	"repro/internal/queryset"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/zbtree"
)

// samRunner abstracts one spatial access method for the cross-SAM
// extension experiment: build an index over objects, then run a window
// query through a Reader.
type samRunner struct {
	name   string
	pages  func() int
	search func(rd rtree.Reader, ctx buffer.AccessContext, w geom.Rect) error
	store  *storage.MemStore
}

// figCrossSAM is an extension beyond the paper: the same window workload
// and the same replacement policies on all three access-method families
// §2.3 names — R*-tree, z-order B-tree and quadtree. Cells are gains over
// LRU per (SAM, policy).
func figCrossSAM(opts Options, seed int64) ([]*Table, error) {
	db, err := Get(1, opts)
	if err != nil {
		return nil, err
	}
	gen := db.Generator
	objs := db.Objects
	space := gen.Space

	var sams []*samRunner

	// R*-tree (reuse the database's tree and store).
	{
		st := db.Stats
		sams = append(sams, &samRunner{
			name:  "R*-tree",
			pages: func() int { return st.TotalPages() },
			search: func(rd rtree.Reader, ctx buffer.AccessContext, w geom.Rect) error {
				return db.Tree.Search(rd, ctx, w, func(page.Entry) bool { return true })
			},
			store: db.Store,
		})
	}
	// z-order B-tree.
	{
		store := storage.NewMemStore()
		zt, err := zbtree.New(store, space, zbtree.DefaultParams())
		if err != nil {
			return nil, err
		}
		for _, o := range objs {
			if err := zt.Insert(o.ID, o.MBR); err != nil {
				return nil, err
			}
		}
		if err := zt.FinalizeStats(); err != nil {
			return nil, err
		}
		st, err := zt.Stats()
		if err != nil {
			return nil, err
		}
		store.ResetStats()
		sams = append(sams, &samRunner{
			name:  "z-B-tree",
			pages: func() int { return st.TotalPages() },
			search: func(rd rtree.Reader, ctx buffer.AccessContext, w geom.Rect) error {
				return zt.WindowQuery(rd, ctx, w, func(page.Entry) bool { return true })
			},
			store: store,
		})
	}
	// Quadtree.
	{
		store := storage.NewMemStore()
		qt, err := quadtree.New(store, space, quadtree.DefaultParams())
		if err != nil {
			return nil, err
		}
		for _, o := range objs {
			if err := qt.Insert(o.ID, o.MBR); err != nil {
				return nil, err
			}
		}
		if err := qt.FinalizeStats(); err != nil {
			return nil, err
		}
		st, err := qt.Stats()
		if err != nil {
			return nil, err
		}
		store.ResetStats()
		sams = append(sams, &samRunner{
			name:  "quadtree",
			pages: func() int { return st.Pages },
			search: func(rd rtree.Reader, ctx buffer.AccessContext, w geom.Rect) error {
				return qt.Search(rd, ctx, w, func(page.Entry) bool { return true })
			},
			store: store,
		})
	}

	policies := []string{"LRU-2", "A", "ASB", "CLOCK"}
	qs := queryset.UniformWindows(space, 2500, 100, seed+31)

	rows := make([]string, len(sams))
	t := NewTable("crosssam", "policies across access methods, DB1, U-W-100, buffer 4.7%",
		"gain vs LRU [%]", rowsOf(sams, rows), policies)
	for _, sam := range sams {
		frames := int(LargestFrac * float64(sam.pages()))
		if frames < 2 {
			frames = 2
		}
		run := func(pol buffer.Policy) (uint64, error) {
			m, err := buffer.NewEngine(sam.store, pol, frames)
			if err != nil {
				return 0, err
			}
			for _, q := range qs.Queries {
				if err := sam.search(m, buffer.AccessContext{QueryID: q.ID}, q.Rect); err != nil {
					return 0, err
				}
			}
			return m.Stats().DiskReads(), nil
		}
		lru, err := run(core.NewLRU())
		if err != nil {
			return nil, fmt.Errorf("experiment: crosssam %s: %w", sam.name, err)
		}
		for _, pn := range policies {
			f, err := core.FactoryByName(pn)
			if err != nil {
				return nil, err
			}
			io, err := run(f.New(frames))
			if err != nil {
				return nil, fmt.Errorf("experiment: crosssam %s/%s: %w", sam.name, pn, err)
			}
			if err := t.Set(sam.name, pn, gainPct(lru, io)); err != nil {
				return nil, err
			}
		}
	}
	return []*Table{t}, nil
}

// rowsOf extracts the SAM names.
func rowsOf(sams []*samRunner, rows []string) []string {
	for i, s := range sams {
		rows[i] = s.name
	}
	return rows
}

// figUpdates renders the update-workload extension (future-work item 2)
// as a table of total I/O (reads + write-backs) relative to LRU.
func figUpdates(opts Options, seed int64) ([]*Table, error) {
	objects := opts.Objects
	if objects <= 0 {
		objects = 24_000
	}
	policies := []string{"LRU", "LRU-2", "A", "ASB", "CLOCK", "PIN"}
	factories, err := factoriesByName(policies...)
	if err != nil {
		return nil, err
	}
	mix := DefaultUpdateMix()
	t := NewTable("updates", "update workload (60% queries / 25% inserts / 15% deletes), DB1, buffer 3%",
		"gain vs LRU [%] (reads+write-backs)", policies, []string{"gain", "reads", "write-backs"})
	results, err := RunUpdateWorkload(1, objects, 0.03, factories, mix, seed)
	if err != nil {
		return nil, err
	}
	var lruIO uint64
	for _, r := range results {
		if r.Policy == "LRU" {
			lruIO = r.IO
		}
	}
	for _, r := range results {
		if err := t.Set(r.Policy, "gain", gainPct(lruIO, r.IO)); err != nil {
			return nil, err
		}
		if err := t.Set(r.Policy, "reads", float64(r.Reads)); err != nil {
			return nil, err
		}
		if err := t.Set(r.Policy, "write-backs", float64(r.WriteBacks)); err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
