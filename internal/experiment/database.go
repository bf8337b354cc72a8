// Package experiment reproduces the paper's evaluation: it builds the two
// synthetic databases, derives the query sets of §3.1, runs them across
// replacement policies and buffer sizes, and renders every figure of the
// paper (Figs. 4–9, 12–14) as tables of relative performance gains.
package experiment

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/queryset"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Options configure database construction.
type Options struct {
	// Objects is the number of spatial objects (0 = the default scale for
	// the database, chosen so experiments run in seconds on a laptop; the
	// paper-scale values are 1,641,079 for DB1 and 572,694 for DB2).
	Objects int
	// Places is the number of place records for the S/INT/IND query sets
	// (0 = Objects/40, at least 600).
	Places int
	// Seed drives all generation. The default 1 reproduces the shipped
	// EXPERIMENTS.md numbers.
	Seed int64
}

// defaultObjects are the default object counts per database number.
var defaultObjects = map[int]int{1: 160_000, 2: 96_000}

// PaperObjects are the object counts of the paper's databases.
var PaperObjects = map[int]int{1: 1_641_079, 2: 572_694}

// Database is a fully built experimental database: the generator, the
// objects, the R*-tree over a memory store, and the places file.
type Database struct {
	Number    int
	Name      string
	Generator *dataset.Generator
	Objects   []dataset.Object
	Places    []dataset.Place
	Tree      *rtree.Tree
	Store     *storage.MemStore
	Stats     rtree.TreeStats

	traceMu sync.Mutex
	traces  map[string]*trace.Trace
}

// Space returns the data space.
func (db *Database) Space() geom.Rect { return db.Generator.Space }

// Build constructs database 1 or 2 with the paper's tree parameters
// (fan-outs 51/42), finalizing page statistics for the spatial criteria.
func Build(number int, opts Options) (*Database, error) {
	gen, err := generator(number, opts.Seed)
	if err != nil {
		return nil, err
	}
	n := opts.Objects
	if n <= 0 {
		n = defaultObjects[number]
	}
	nPlaces := opts.Places
	if nPlaces <= 0 {
		nPlaces = n / 40
		if nPlaces < 600 {
			nPlaces = 600
		}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}

	objs := gen.Objects(seed+1, n)
	places := gen.Places(seed+2, nPlaces)

	tree, store, st, err := buildTree(objs)
	if err != nil {
		return nil, fmt.Errorf("experiment: build db%d: %w", number, err)
	}
	return &Database{
		traces:    make(map[string]*trace.Trace),
		Number:    number,
		Name:      fmt.Sprintf("DB%d", number),
		Generator: gen,
		Objects:   objs,
		Places:    places,
		Tree:      tree,
		Store:     store,
		Stats:     st,
	}, nil
}

// generator returns the object generator of database 1 or 2.
func generator(number int, seed int64) (*dataset.Generator, error) {
	switch number {
	case 1:
		return dataset.USMainland(seed + 100), nil
	case 2:
		return dataset.WorldAtlas(seed + 200), nil
	}
	return nil, fmt.Errorf("experiment: unknown database %d", number)
}

// index is what fill needs of a spatial access method.
type index interface {
	Insert(objID uint64, mbr geom.Rect) error
	FinalizeStats() error
}

// fill inserts objs into ix and finalizes the page statistics the
// spatial criteria read.
func fill(ix index, objs []dataset.Object) error {
	for _, o := range objs {
		if err := ix.Insert(o.ID, o.MBR); err != nil {
			return err
		}
	}
	return ix.FinalizeStats()
}

// buildTree indexes objs into a fresh R*-tree over its own memory store
// with the paper's parameters, finalizes the page statistics the spatial
// criteria read, and resets the store's counters.
func buildTree(objs []dataset.Object) (*rtree.Tree, *storage.MemStore, rtree.TreeStats, error) {
	store := storage.NewMemStore()
	tree, err := rtree.New(store, rtree.DefaultParams())
	if err != nil {
		return nil, nil, rtree.TreeStats{}, err
	}
	if err := fill(tree, objs); err != nil {
		return nil, nil, rtree.TreeStats{}, err
	}
	st, err := tree.Stats()
	if err != nil {
		return nil, nil, rtree.TreeStats{}, err
	}
	store.ResetStats()
	return tree, store, st, nil
}

// dbCache memoizes default-scale databases within one process (figures
// and benchmarks share them).
var dbCache sync.Map // key string -> *Database or error

// Get returns the memoized default-scale database, building it on first
// use.
func Get(number int, opts Options) (*Database, error) {
	key := fmt.Sprintf("%d/%d/%d/%d", number, opts.Objects, opts.Places, opts.Seed)
	if v, ok := dbCache.Load(key); ok {
		if db, ok := v.(*Database); ok {
			return db, nil
		}
		return nil, v.(error)
	}
	db, err := Build(number, opts)
	if err != nil {
		dbCache.Store(key, err)
		return nil, err
	}
	dbCache.Store(key, db)
	return db, nil
}

// bufferFracs are the paper's relative buffer sizes (0.3% to 4.7% of the
// database's page count).
var bufferFracs = []float64{0.003, 0.006, 0.012, 0.024, 0.047}

// LargestFrac is the biggest buffer used, which calibrates query-set
// sizes.
const LargestFrac = 0.047

// Frames converts a relative buffer size to frames for this database
// (at least 2 so every policy, including ASB, is constructible).
func (db *Database) Frames(frac float64) int {
	f := int(frac * float64(db.Stats.TotalPages()))
	if f < 2 {
		f = 2
	}
	return f
}

// QuerySet materializes the named query set. Names follow the paper: U-P,
// U-W-33, U-W-100, U-W-333, U-W-1000, ID-P, ID-W, S-P, S-W-ex, INT-P,
// INT-W-ex, IND-P, IND-W-ex. n is the query count; n ≤ 0 picks the
// calibrated default (see queryCount).
func (db *Database) QuerySet(name string, n int, seed int64) (queryset.Set, error) {
	if n <= 0 {
		var err error
		n, err = db.queryCount(name, seed)
		if err != nil {
			return queryset.Set{}, err
		}
	}
	return db.rawQuerySet(name, n, seed)
}

// rawQuerySet builds a query set of exactly n queries.
func (db *Database) rawQuerySet(name string, n int, seed int64) (queryset.Set, error) {
	space := db.Space()
	switch {
	case name == "U-P":
		return queryset.Uniform(space, n, seed+10), nil
	case name == "ID-P":
		return queryset.Identical(db.Objects, n, seed+11), nil
	case name == "ID-W":
		return queryset.IdenticalWindows(db.Objects, n, seed+12), nil
	case name == "S-P":
		return queryset.Similar(db.Places, n, seed+13), nil
	case name == "INT-P":
		return queryset.Intensified(db.Places, n, seed+14), nil
	case name == "IND-P":
		return queryset.Independent(db.Places, space, n, seed+15), nil
	}
	var ex int
	switch {
	case strings.HasPrefix(name, "U-W-"):
		if _, err := fmt.Sscanf(name, "U-W-%d", &ex); err == nil {
			return queryset.UniformWindows(space, n, ex, seed+16), nil
		}
	case strings.HasPrefix(name, "S-W-"):
		if _, err := fmt.Sscanf(name, "S-W-%d", &ex); err == nil {
			return queryset.SimilarWindows(db.Places, space, n, ex, seed+17), nil
		}
	case strings.HasPrefix(name, "INT-W-"):
		if _, err := fmt.Sscanf(name, "INT-W-%d", &ex); err == nil {
			return queryset.IntensifiedWindows(db.Places, space, n, ex, seed+18), nil
		}
	case strings.HasPrefix(name, "IND-W-"):
		if _, err := fmt.Sscanf(name, "IND-W-%d", &ex); err == nil {
			return queryset.IndependentWindows(db.Places, space, n, ex, seed+19), nil
		}
	}
	return queryset.Set{}, fmt.Errorf("experiment: unknown query set %q", name)
}

// queryCount calibrates the number of queries for a set following the
// paper's rule: enough queries that the physical accesses are roughly 10
// to 20 times the largest buffer. It probes with a small sample to
// estimate page references per query, then targets ≈30× the largest
// buffer in references (references upper-bound accesses; for small
// buffers the two converge).
func (db *Database) queryCount(name string, seed int64) (int, error) {
	const probeQueries = 48
	probe, err := db.rawQuerySet(name, probeQueries, seed)
	if err != nil {
		return 0, err
	}
	refs, err := countRefs(db.Tree, probe)
	if err != nil {
		return 0, err
	}
	perQuery := float64(refs) / probeQueries
	if perQuery < 1 {
		perQuery = 1
	}
	target := 30 * LargestFrac * float64(db.Stats.TotalPages())
	n := int(target / perQuery)
	if n < 300 {
		n = 300
	}
	if n > 30_000 {
		n = 30_000
	}
	return n, nil
}

// Trace returns the (cached) page-reference trace of the named query set
// with its calibrated size. Traces are policy-independent, so one
// recording serves every replay.
func (db *Database) Trace(name string, seed int64) (*trace.Trace, error) {
	key := fmt.Sprintf("%s/%d", name, seed)
	db.traceMu.Lock()
	defer db.traceMu.Unlock()
	if tr, ok := db.traces[key]; ok {
		return tr, nil
	}
	qs, err := db.QuerySet(name, 0, seed)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Record(db.Tree, qs)
	if err != nil {
		return nil, err
	}
	db.traces[key] = tr
	return tr, nil
}
