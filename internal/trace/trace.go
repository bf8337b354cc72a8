// Package trace records and replays page-reference strings.
//
// The sequence of tree pages a query set touches does not depend on the
// buffer policy (queries are read-only and traverse the same index), so
// the experiment harness records the reference string once per
// (database, query set) pair and replays it through every policy × buffer
// size. Replay produces exactly the disk-access counts of live execution —
// an equivalence the integration tests assert — at a fraction of the cost.
// A replay re-emits the obs event stream into whatever sink its pool
// carries, so recorded traces can feed the same exporters (JSONL,
// counters, c-trajectories) as live runs.
package trace

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/queryset"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Ref is one page reference: which page was requested on behalf of which
// query.
type Ref struct {
	Query uint64
	Page  page.ID
}

// Trace is the reference string of a query set against a tree.
type Trace struct {
	Name string
	Refs []Ref
}

// Len returns the number of page references.
func (t *Trace) Len() int { return len(t.Refs) }

// recorder is an rtree.Reader that appends every access to a trace.
type recorder struct {
	inner rtree.Reader
	refs  []Ref
}

// Get implements rtree.Reader.
func (r *recorder) Get(id page.ID, ctx buffer.AccessContext) (*page.Page, error) {
	r.refs = append(r.refs, Ref{Query: ctx.QueryID, Page: id})
	return r.inner.Get(id, ctx)
}

// Record runs the query set against the tree (windows via Search, points
// via the same path) and returns the reference string.
func Record(t *rtree.Tree, qs queryset.Set) (*Trace, error) {
	rec := &recorder{inner: rtree.StoreReader{Store: t.Store()}}
	for _, q := range qs.Queries {
		ctx := buffer.AccessContext{QueryID: q.ID}
		err := t.Search(rec, ctx, q.Rect, func(page.Entry) bool { return true })
		if err != nil {
			return nil, fmt.Errorf("trace: record %s query %d: %w", qs.Name, q.ID, err)
		}
	}
	return &Trace{Name: qs.Name, Refs: rec.refs}, nil
}

// ReplayOn replays the trace on an existing buffer pool (which is
// cleared first, as the paper clears the buffer before each query set).
// Any buffer.Pool works: a bare Engine for the single-threaded
// experiments, a sharded composition to measure partitioned policies.
// Sinks and tracers attached to the pool beforehand see the replay
// exactly as they would see live execution.
func ReplayOn(tr *Trace, p buffer.Pool) (buffer.Stats, error) {
	if err := p.Clear(); err != nil {
		return buffer.Stats{}, err
	}
	for _, ref := range tr.Refs {
		if _, err := p.Get(ref.Page, buffer.AccessContext{QueryID: ref.Query}); err != nil {
			return buffer.Stats{}, fmt.Errorf("trace: replay %s: page %d: %w", tr.Name, ref.Page, err)
		}
	}
	return p.Stats(), nil
}

// PageMetas reads each distinct page of the trace from the store exactly
// once and returns its descriptor — the metadata an offline shadow-cache
// replay (tracedump's miss-ratio-curve mode) needs to score spatial
// criteria without re-reading pages per reference.
func PageMetas(tr *Trace, store storage.Store) (map[page.ID]page.Meta, error) {
	metas := make(map[page.ID]page.Meta)
	for _, ref := range tr.Refs {
		if _, ok := metas[ref.Page]; ok {
			continue
		}
		p, err := store.Read(ref.Page)
		if err != nil {
			return nil, fmt.Errorf("trace: meta of page %d: %w", ref.Page, err)
		}
		metas[ref.Page] = p.Meta
	}
	return metas, nil
}
