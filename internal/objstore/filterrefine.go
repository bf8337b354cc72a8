package objstore

import (
	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
)

// FilterRefineResult summarizes one two-step window query.
type FilterRefineResult struct {
	// Candidates is the number of objects the filter step (SAM) produced.
	Candidates int
	// Hits is the number of candidates whose exact representation
	// intersects the window.
	Hits int
	// FalseDrops is Candidates − Hits: MBR matches whose exact geometry
	// misses the window.
	FalseDrops int
}

// FilterRefine executes the paper's two-step window query: the R*-tree
// filters candidates by MBR (reading index pages through treeRd), then
// each candidate's exact representation is checked against the window
// (reading object pages through objRd). The two readers are typically
// two *separate* buffers, exactly as in the paper's setup ("the pages of
// the spatial objects are stored in separate files and buffers").
//
// shapes optionally supplies exact polylines for a precise refinement
// test; without it the refinement uses the stored segment MBRs.
func FilterRefine(
	t *rtree.Tree, treeRd rtree.Reader,
	objs *Store, objRd rtree.Reader,
	shapes map[uint64]geom.Polyline,
	ctx buffer.AccessContext, window geom.Rect,
	fn func(objID uint64) bool,
) (FilterRefineResult, error) {
	var res FilterRefineResult
	var ferr error
	err := t.Search(treeRd, ctx, window, func(e page.Entry) bool {
		res.Candidates++
		hit, err := objs.refine(objRd, ctx, e.ObjID, window, shapes[e.ObjID])
		if err != nil {
			ferr = err
			return false
		}
		if !hit {
			res.FalseDrops++
			return true
		}
		res.Hits++
		if fn != nil {
			return fn(e.ObjID)
		}
		return true
	})
	if ferr != nil {
		return res, ferr
	}
	return res, err
}
