package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/storage"
)

// The traced pass measures the layers from outside: the harness wraps
// the calls it makes into rtree (one op span per query / insert /
// delete), the buffer.Pool the tree is handed (get / put spans) and the
// storage.Store the pool was built on (read / write spans). Spans go
// into slabs allocated before the round; nothing is written or grown
// while the clock runs.

type spanKind uint8

const (
	spanOp spanKind = iota
	spanGet
	spanPut
	spanRead
	spanWrite
)

var spanNames = [...]string{"rtree.call", "buffer.get", "buffer.put", "storage.read", "storage.write"}

// span is one timed call. Op and buffer spans live in their worker's
// slab and name their parent by index into it; store spans live in the
// store recorder's slab and are parented after the round (attach).
type span struct {
	kind   spanKind
	worker int8  // owning worker; for store spans the parent's worker, −1 = none
	parent int32 // index into the worker's slab, −1 = root or unparented
	op     uint32
	page   uint32
	start  int64 // ns since the run's epoch
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// epoch anchors every span timestamp; time.Since reads the monotonic
// clock only.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// poolRecorder is the buffer.Pool one worker hands to the tree during a
// traced round. Get and Put are stamped; everything else passes through
// the embedded pool.
type poolRecorder struct {
	buffer.Pool
	worker  int8
	spans   []span
	dropped int
	cur     int32 // index of the running op span
}

// reset empties the slab for the next round, growing it to hold n spans.
func (r *poolRecorder) reset(n int) {
	if cap(r.spans) < n {
		r.spans = make([]span, 0, n)
	}
	r.spans = r.spans[:0]
	r.dropped = 0
}

func (r *poolRecorder) add(s span) {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// beginOp opens the op span; endOp closes it.
func (r *poolRecorder) beginOp(op uint32, start int64) {
	r.cur = int32(len(r.spans))
	r.add(span{kind: spanOp, worker: r.worker, parent: -1, op: op, start: start})
}

func (r *poolRecorder) endOp(end int64) {
	if int(r.cur) < len(r.spans) {
		r.spans[r.cur].end = end
	}
}

func (r *poolRecorder) opID() uint32 {
	if int(r.cur) < len(r.spans) {
		return r.spans[r.cur].op
	}
	return 0
}

func (r *poolRecorder) Get(id page.ID, ctx buffer.AccessContext) (*page.Page, error) {
	t0 := now()
	p, err := r.Pool.Get(id, ctx)
	r.add(span{kind: spanGet, worker: r.worker, parent: r.cur, op: r.opID(), page: uint32(id), start: t0, end: now()})
	return p, err
}

func (r *poolRecorder) Put(p *page.Page, ctx buffer.AccessContext) error {
	t0 := now()
	err := r.Pool.Put(p, ctx)
	r.add(span{kind: spanPut, worker: r.worker, parent: r.cur, op: r.opID(), page: uint32(p.ID), start: t0, end: now()})
	return err
}

// storeRecorder wraps the store a traced pool is built on. Reads and
// writes arrive from worker goroutines and from the async layer's
// write-back goroutines, so slots are claimed with an atomic counter.
// Recording is off except during traced rounds.
type storeRecorder struct {
	storage.Store
	on    atomic.Bool
	next  atomic.Int64
	spans []span
}

func (r *storeRecorder) reset(n int) {
	if len(r.spans) < n {
		r.spans = make([]span, n)
	}
	r.next.Store(0)
}

// recorded returns the spans stamped since reset and how many did not
// fit.
func (r *storeRecorder) recorded() ([]span, int) {
	n := int(r.next.Load())
	if n > len(r.spans) {
		return r.spans, n - len(r.spans)
	}
	return r.spans[:n], 0
}

func (r *storeRecorder) stamp(kind spanKind, id page.ID, start int64) {
	if i := r.next.Add(1) - 1; int(i) < len(r.spans) {
		r.spans[i] = span{kind: kind, worker: -1, parent: -1, page: uint32(id), start: start, end: now()}
	}
}

func (r *storeRecorder) Read(id page.ID) (*page.Page, error) {
	if !r.on.Load() {
		return r.Store.Read(id)
	}
	t0 := now()
	p, err := r.Store.Read(id)
	r.stamp(spanRead, id, t0)
	return p, err
}

func (r *storeRecorder) Write(p *page.Page) error {
	if !r.on.Load() {
		return r.Store.Write(p)
	}
	t0 := now()
	err := r.Store.Write(p)
	r.stamp(spanWrite, p.ID, t0)
	return err
}

// attach parents every store span to the buffer span that caused it:
// the get or put whose interval contains it — for a read, of the same
// page (a physical read is unique per page per instant in every
// composition, and the reader's own call is still open when the read
// returns). Writes carry the victim's page ID, not the requested one,
// so time alone decides; a write issued by a write-back goroutine is
// contained in no worker call and stays unparented (background time).
// workers[i] must be in start order, which a single goroutine stamping
// sequential calls guarantees.
func attach(workers [][]span, store []span) {
	for i := range store {
		s := &store[i]
		s.worker, s.parent = -1, -1
		for w, spans := range workers {
			// The last buffer span starting at or before s; op spans
			// contain their buffer spans, so skip back over them.
			j := sort.Search(len(spans), func(k int) bool { return spans[k].start > s.start }) - 1
			for j >= 0 && spans[j].kind == spanOp {
				j--
			}
			if j < 0 {
				continue
			}
			b := spans[j]
			if b.end < s.end || (s.kind == spanRead && b.page != s.page) {
				continue
			}
			// Two workers can both have a get of this page open (leader and
			// coalesced waiter); the later start is the tighter fit.
			if s.parent < 0 || b.start > workers[s.worker][s.parent].start {
				s.worker, s.parent, s.op = int8(w), int32(j), b.op
			}
		}
	}
}

// traceSummary is one traced round: per-call samples, whose medians are
// the per-call metrics (a median, because on a busy two-core box a few
// calls per round are descheduled for milliseconds), and sums, whose
// ratios are the time shares.
type traceSummary struct {
	opSelf, hit, missSelf, putSelf, read, write []int64 // ns per call

	opNs            int64 // Σ op durations: the workers' time
	bufferSelfNs    int64
	parentedStoreNs int64
	bgWriteNs       int64 // store writes no worker call contains
}

// summarize computes self times: a span's duration minus the part its
// children cover. Children of one parent never overlap (each layer calls
// the next synchronously), so covered time is the sum of child
// durations. A get with no store child is a hit.
func summarize(workers [][]span, store []span) traceSummary {
	var t traceSummary
	child := make([][]int64, len(workers)) // covered ns per span index
	for w, spans := range workers {
		child[w] = make([]int64, len(spans))
	}
	for _, s := range store {
		if s.kind == spanRead {
			t.read = append(t.read, s.dur())
		} else {
			t.write = append(t.write, s.dur())
		}
		if s.parent >= 0 {
			child[s.worker][s.parent] += s.dur()
			t.parentedStoreNs += s.dur()
		} else if s.kind == spanWrite {
			t.bgWriteNs += s.dur()
		}
	}
	for w, spans := range workers {
		for i, s := range spans {
			if s.kind == spanOp {
				continue
			}
			self := s.dur() - child[w][i]
			t.bufferSelfNs += self
			switch {
			case s.kind == spanPut:
				t.putSelf = append(t.putSelf, self)
			case child[w][i] == 0:
				t.hit = append(t.hit, self)
			default:
				t.missSelf = append(t.missSelf, self)
			}
			child[w][s.parent] += s.dur()
		}
		for i, s := range spans {
			if s.kind == spanOp {
				t.opNs += s.dur()
				t.opSelf = append(t.opSelf, s.dur()-child[w][i])
			}
		}
	}
	return t
}

// jsonSpan is one line of trace.<workload>.jsonl.
type jsonSpan struct {
	Op      uint32 `json:"op"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Worker  int    `json:"worker"`
	Page    uint32 `json:"page,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace writes the span trees of the first maxOps ops of every
// worker as JSON lines: each op span followed by its buffer spans, then
// the store spans of that stretch of time, parented or not.
func writeTrace(path string, workers [][]span, store []span, maxOps int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := func(worker int8, i int) string { return fmt.Sprintf("w%d.%d", worker, i) }
	emit := func(s span, id, parent string) error {
		return enc.Encode(jsonSpan{Op: s.op, ID: id, Parent: parent, Name: spanNames[s.kind], Worker: int(s.worker), Page: s.page, StartNs: s.start, EndNs: s.end})
	}

	kept := make([]int, len(workers)) // spans kept per worker
	var until int64                   // when the last kept op ended
	for wi, spans := range workers {
		ops := 0
		for i, s := range spans {
			if s.kind == spanOp {
				if ops == maxOps {
					break
				}
				ops++
			}
			kept[wi], until = i+1, max(until, s.end)
			parent := ""
			if s.parent >= 0 {
				parent = id(s.worker, int(s.parent))
			}
			if err := emit(s, id(s.worker, i), parent); err != nil {
				return err
			}
		}
	}
	for i, s := range store {
		parent := ""
		if s.parent >= 0 {
			if int(s.parent) >= kept[s.worker] {
				continue
			}
			parent = id(s.worker, int(s.parent))
		} else if s.start > until {
			continue
		}
		if err := emit(s, fmt.Sprintf("s.%d", i), parent); err != nil {
			return err
		}
	}
	return w.Flush()
}
