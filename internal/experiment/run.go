package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/queryset"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// countRefs counts the page references of a query set (used to calibrate
// query-set sizes).
func countRefs(t *rtree.Tree, qs queryset.Set) (int, error) {
	tr, err := trace.Record(t, qs)
	if err != nil {
		return 0, err
	}
	return tr.Len(), nil
}

// Cell identifies one measurement: a query set run under a policy with a
// relative buffer size.
type Cell struct {
	Set    string
	Policy string
	Frac   float64
}

// Sweep holds the disk-access counts of a policy × buffer-size ×
// query-set sweep over one database.
type Sweep struct {
	DB       *Database
	Accesses map[Cell]uint64
	Refs     map[string]int // references per query set (policy-independent)
}

// Run records one trace per query set and replays it through every
// (policy, buffer size) combination. Query sets are resolved by name with
// calibrated sizes; seed controls query generation. Replays are
// independent of each other (each gets its own buffer manager and policy
// instance over the shared, thread-safe page store), so they run in
// parallel across the available CPUs.
func Run(db *Database, setNames []string, factories []core.Factory, fracs []float64, seed int64) (*Sweep, error) {
	sw := &Sweep{
		DB:       db,
		Accesses: make(map[Cell]uint64),
		Refs:     make(map[string]int),
	}
	type job struct {
		tr     *trace.Trace
		cell   Cell
		frames int
		f      core.Factory
	}
	var jobs []job
	for _, name := range setNames {
		tr, err := db.Trace(name, seed)
		if err != nil {
			return nil, err
		}
		sw.Refs[name] = tr.Len()
		for _, frac := range fracs {
			frames := db.Frames(frac)
			for _, f := range factories {
				jobs = append(jobs, job{
					tr:     tr,
					cell:   Cell{Set: name, Policy: f.Name, Frac: frac},
					frames: frames,
					f:      f,
				})
			}
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				var stats buffer.Stats
				m, err := buffer.NewEngine(db.Store, j.f.New(j.frames), j.frames)
				if err == nil {
					m.SetTracer(currentTracer())
					stats, err = trace.ReplayOn(j.tr, m)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("experiment: %s/%s/%.3f: %w",
						j.cell.Set, j.cell.Policy, j.cell.Frac, err)
				}
				sw.Accesses[j.cell] = stats.DiskReads()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return sw, nil
}

// Gain returns the paper's relative performance gain of a policy over LRU
// for one cell: |accesses(LRU)| / |accesses(policy)| − 1. The sweep must
// include the "LRU" policy.
func (s *Sweep) Gain(set, policy string, frac float64) (float64, error) {
	lru, ok := s.Accesses[Cell{Set: set, Policy: "LRU", Frac: frac}]
	if !ok {
		return 0, fmt.Errorf("experiment: no LRU baseline for %s at %.3f", set, frac)
	}
	pol, ok := s.Accesses[Cell{Set: set, Policy: policy, Frac: frac}]
	if !ok {
		return 0, fmt.Errorf("experiment: no measurement for %s/%s at %.3f", set, policy, frac)
	}
	if pol == 0 {
		return 0, nil
	}
	return float64(lru)/float64(pol) - 1, nil
}

// gainPct is Gain's formula in percent for raw I/O counts: the gain of a
// policy that needed io accesses over a baseline that needed base.
func gainPct(base, io uint64) float64 {
	if io == 0 {
		return 0
	}
	return (float64(base)/float64(io) - 1) * 100
}

// Relative returns accesses(policy) / accesses(base) × 100% for one cell
// (the metric of Fig. 6, where base is the spatial strategy A).
func (s *Sweep) Relative(set, policy, base string, frac float64) (float64, error) {
	b, ok := s.Accesses[Cell{Set: set, Policy: base, Frac: frac}]
	if !ok {
		return 0, fmt.Errorf("experiment: no base %s for %s at %.3f", base, set, frac)
	}
	p, ok := s.Accesses[Cell{Set: set, Policy: policy, Frac: frac}]
	if !ok {
		return 0, fmt.Errorf("experiment: no measurement for %s/%s at %.3f", set, policy, frac)
	}
	if b == 0 {
		return 0, nil
	}
	return float64(p) / float64(b) * 100, nil
}

// factoriesByName resolves policy names to standard factories.
func factoriesByName(names ...string) ([]core.Factory, error) {
	out := make([]core.Factory, 0, len(names))
	for _, n := range names {
		f, err := core.FactoryByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// AdaptationTrace runs the Fig. 14 experiment: the concatenated mixed
// workload (INT-W-33, U-W-33, S-W-33) through an ASB buffer, recording the
// candidate-set size after every adaptation event, plus the boundaries
// between the three phases in reference counts.
type AdaptationTrace struct {
	// Sizes[i] is the candidate-set size after the i-th overflow hit.
	Sizes []int
	// RefAt[i] is the reference index at which the i-th adaptation
	// happened.
	RefAt []int
	// PhaseEnds are the reference indices where the INT, U and S phases
	// end.
	PhaseEnds [3]int
	// Initial is the starting candidate size; MainCap its upper bound.
	Initial, MainCap int
	// Frames is the buffer capacity used.
	Frames int
}

// PhaseAverage returns the average candidate size during phase p (0=INT,
// 1=U, 2=S).
func (a *AdaptationTrace) PhaseAverage(p int) float64 {
	start := 0
	if p > 0 {
		start = a.PhaseEnds[p-1]
	}
	end := a.PhaseEnds[p]
	sum, cnt := 0, 0
	for i, at := range a.RefAt {
		if at >= start && at < end {
			sum += a.Sizes[i]
			cnt++
		}
	}
	if cnt == 0 {
		return float64(a.Initial)
	}
	return float64(sum) / float64(cnt)
}

// RunAdaptation executes the mixed workload of Fig. 14.
func RunAdaptation(db *Database, frac float64, seed int64) (*AdaptationTrace, error) {
	names := []string{"INT-W-33", "U-W-33", "S-W-33"}
	var traces []*trace.Trace
	for _, n := range names {
		tr, err := db.Trace(n, seed)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}

	frames := db.Frames(frac)
	out := &AdaptationTrace{Frames: frames}
	pol := core.NewASB(frames, core.DefaultASBOptions())
	out.Initial = pol.CandidateSize()
	out.MainCap = pol.MainCapacity()

	m, err := buffer.NewEngine(db.Store, pol, frames)
	if err != nil {
		return nil, err
	}
	m.SetTracer(currentTracer())
	// The rest of the run programs against the Pool interface — the
	// harness measures policies, not a concrete pool flavour.
	var pool buffer.Pool = m
	// The candidate-set trajectory is captured from the event stream: the
	// recorder samples the size at every Adapt event, at the request count
	// the engine stamped on it.
	rec := obs.NewTrajectoryRecorder()
	pool.SetSink(rec)
	// One continuous run over the three phases (no clearing in between:
	// the point is to watch the buffer adapt to the changing profile).
	queryOffset := uint64(0)
	for pi, tr := range traces {
		maxQ := uint64(0)
		for _, ref := range tr.Refs {
			if _, err := pool.Get(ref.Page, buffer.AccessContext{QueryID: queryOffset + ref.Query}); err != nil {
				return nil, err
			}
			if ref.Query > maxQ {
				maxQ = ref.Query
			}
		}
		queryOffset += maxQ
		out.PhaseEnds[pi] = int(pool.Stats().Requests)
	}
	out.RefAt = rec.Ref
	out.Sizes = rec.Cand
	return out, nil
}

// HistMemory reports the LRU-K memory drawback for a query set: the
// number of retained history records after replaying it, versus the
// buffer capacity (paper §2.2 and §4.3: ASB needs no state for pages that
// left the buffer).
func HistMemory(db *Database, setName string, frac float64, k int, seed int64) (histRecords, frames int, err error) {
	tr, err := db.Trace(setName, seed)
	if err != nil {
		return 0, 0, err
	}
	frames = db.Frames(frac)
	pol := core.NewLRUK(k)
	if _, err := trace.Replay(tr, db.Store, pol, frames); err != nil {
		return 0, 0, err
	}
	return pol.HistRecords(), frames, nil
}
