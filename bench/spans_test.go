package main

import (
	"reflect"
	"testing"
)

// One worker runs one op: a miss whose read the store saw, a hit, and a
// put during which a dirty victim (another page) was written in line. A
// second worker's get of the same page is open across the same read —
// the coalesced waiter. A background writer writes a page after the op's
// last call.
func syntheticSpans() (workers [][]span, store []span) {
	w0 := []span{
		{kind: spanOp, worker: 0, parent: -1, op: 1, start: 0, end: 100},
		{kind: spanGet, worker: 0, parent: 0, op: 1, page: 5, start: 10, end: 40},
		{kind: spanGet, worker: 0, parent: 0, op: 1, page: 6, start: 50, end: 60},
		{kind: spanPut, worker: 0, parent: 0, op: 1, page: 7, start: 70, end: 90},
	}
	w1 := []span{
		{kind: spanOp, worker: 1, parent: -1, op: 2, start: 2, end: 50},
		{kind: spanGet, worker: 1, parent: 0, op: 2, page: 5, start: 5, end: 45},
	}
	store = []span{
		{kind: spanRead, page: 5, start: 15, end: 35},
		{kind: spanWrite, page: 9, start: 72, end: 80},
		{kind: spanWrite, page: 3, start: 95, end: 130},
		{kind: spanRead, page: 8, start: 52, end: 58}, // inside w0's get of page 6: wrong page, no parent
	}
	return [][]span{w0, w1}, store
}

func TestAttachParentsStoreSpans(t *testing.T) {
	workers, store := syntheticSpans()
	attach(workers, store)
	type link struct {
		worker int8
		parent int32
		op     uint32
	}
	want := []link{
		{0, 1, 1},   // the read belongs to the later-starting get: the leader, not the waiter
		{0, 3, 1},   // an in-line victim write is parented by time alone
		{-1, -1, 0}, // the background write outlives every call
		{-1, -1, 0},
	}
	for i, s := range store {
		if got := (link{s.worker, s.parent, s.op}); got != want[i] {
			t.Errorf("store span %d parented to %+v, want %+v", i, got, want[i])
		}
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	workers, store := syntheticSpans()
	attach(workers, store)
	got := summarize(workers, store)
	want := traceSummary{
		opSelf:   []int64{100 - 30 - 10 - 20, 48 - 40},
		hit:      []int64{10, 40}, // the waiter has no store child: it reads as a slow hit
		missSelf: []int64{30 - 20},
		putSelf:  []int64{20 - 8},
		read:     []int64{20, 6},
		write:    []int64{8, 35},

		opNs:            148,
		bufferSelfNs:    10 + 10 + 12 + 40,
		parentedStoreNs: 28,
		bgWriteNs:       35,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summarize:\n got %+v\nwant %+v", got, want)
	}
}

func TestRecorderSlabNeverGrows(t *testing.T) {
	r := &poolRecorder{}
	r.reset(2)
	r.beginOp(1, 0)
	r.add(span{kind: spanGet})
	r.add(span{kind: spanGet})
	r.endOp(9)
	if len(r.spans) != 2 || cap(r.spans) != 2 || r.dropped != 1 {
		t.Errorf("len %d cap %d dropped %d, want 2 2 1", len(r.spans), cap(r.spans), r.dropped)
	}
	if r.spans[0].end != 9 {
		t.Errorf("op span end = %d, want 9", r.spans[0].end)
	}
}
