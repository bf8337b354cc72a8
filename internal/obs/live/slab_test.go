package live

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/page"
)

// eventLog records every delivered event, in delivery order. Only the
// drainer goroutine touches events; first is closed on the first
// delivery and gate, when set, holds every delivery until closed.
type eventLog struct {
	events []any
	first  chan struct{}
	once   sync.Once
	gate   chan struct{}
}

func newEventLog() *eventLog { return &eventLog{first: make(chan struct{})} }

func (l *eventLog) add(e any) {
	if l.gate != nil {
		<-l.gate
	}
	l.events = append(l.events, e)
	l.once.Do(func() { close(l.first) })
}

func (l *eventLog) Request(e obs.RequestEvent)   { l.add(e) }
func (l *eventLog) Eviction(e obs.EvictionEvent) { l.add(e) }
func (l *eventLog) Adapt(e obs.AdaptEvent)       { l.add(e) }

// emit sends an event of whichever kind it is.
func emit(s obs.Sink, e any) {
	switch e := e.(type) {
	case obs.RequestEvent:
		s.Request(e)
	case obs.EvictionEvent:
		s.Eviction(e)
	case obs.AdaptEvent:
		s.Adapt(e)
	}
}

// TestSlabRecordIsCompact pins the record at kind + the largest event.
func TestSlabRecordIsCompact(t *testing.T) {
	want := unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(obs.RequestEvent{})
	if got := unsafe.Sizeof(record{}); got > want || got > 136 {
		t.Errorf("slab record is %d bytes, want ≤ %d (kind + RequestEvent) and ≤ 136", got, want)
	}
}

// TestAsyncSinkRoundTripsEveryFieldInOrder interleaves the three event
// kinds over several slab boundaries, every field set to a value of its
// own — negative ranks and counts, fractional criteria, a reason string
// built at run time — and wants the downstream sink to see exactly the
// emitted sequence.
func TestAsyncSinkRoundTripsEveryFieldInOrder(t *testing.T) {
	const n = 5*slabRecords + 7
	var want []any
	for i := 0; i < n; i++ {
		id := page.ID(1000 + i)
		switch i % 3 {
		case 0:
			want = append(want, obs.RequestEvent{
				Page: id, QueryID: uint64(i) << 33, Hit: i%8 == 0, Shard: i % 5, Coalesced: i%8 != 0,
				Meta: page.Meta{
					ID: id + 1, Type: page.TypeData, Level: i % 3, MBR: geom.NewRect(float64(i), 1, float64(i)+2.5, 7),
					NumEntries: i, EntryAreaSum: 0.25 * float64(i), EntryMarginSum: 1.5 * float64(i), EntryOverlap: 0.125,
				},
			})
		case 1:
			want = append(want, obs.EvictionEvent{Page: id, Reason: fmt.Sprintf("custom-reason-%d", i), Criterion: float64(i) / 3, LRURank: i%7 - 1, Shard: i % 5})
		case 2:
			want = append(want, obs.AdaptEvent{Page: id, BetterSpatial: i, BetterLRU: -i, OldC: i, NewC: i - 9, Shard: i % 5, Ref: uint64(7*i) << 40})
		}
	}
	log := newEventLog()
	s := NewAsyncSink(log, 2*n, nil)
	for _, e := range want {
		emit(s, e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() != 0 || s.Delivered() != n {
		t.Fatalf("delivered %d, dropped %d, want %d and 0", s.Delivered(), s.Dropped(), n)
	}
	for i := range want {
		if !reflect.DeepEqual(log.events[i], want[i]) {
			t.Fatalf("event %d arrived as %+v, emitted as %+v", i, log.events[i], want[i])
		}
	}
}

// TestAsyncSinkFlushesPartialSlab: a few events on an otherwise quiet
// sink reach the downstream sink on the drainer's tick — within 100 ms,
// without Close and without the slab ever filling. A stall of the whole
// machine can outlast that bound, so it gets a few attempts; a flush
// that does not happen fails them all.
func TestAsyncSinkFlushesPartialSlab(t *testing.T) {
	const attempts = 5
	for a := 1; a <= attempts; a++ {
		log := newEventLog()
		s := NewAsyncSink(log, 0, nil)
		for i := 0; i < 3; i++ {
			s.Request(obs.RequestEvent{Page: page.ID(i + 1)})
		}
		var delivered bool
		select {
		case <-log.first:
			delivered = true
		case <-time.After(100 * time.Millisecond):
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if delivered {
			return
		}
		t.Logf("attempt %d: 3 events of a %d-record slab not delivered within 100 ms (tick %v)", a, slabRecords, flushTick)
	}
	t.Fatalf("a partial slab was never delivered before Close in %d attempts", attempts)
}

// TestAsyncSinkDepthAndCapacityCountEvents: both gauges speak in events,
// whatever the unit of hand-off is.
func TestAsyncSinkDepthAndCapacityCountEvents(t *testing.T) {
	def := NewAsyncSink(nil, 0, nil)
	defer def.Close()
	if def.capacity() != DefaultRingCapacity {
		t.Errorf("default capacity = %d events, want %d", def.capacity(), DefaultRingCapacity)
	}
	log := newEventLog()
	log.gate = make(chan struct{})
	s := NewAsyncSink(log, slabRecords+1, nil)
	if got, want := s.capacity(), 2*slabRecords; got != want {
		t.Errorf("capacity = %d events, want %d (whole slabs)", got, want)
	}
	const emitted = slabRecords + 10 // one slab handed over, one partly filled
	for i := 0; i < emitted; i++ {
		s.Request(obs.RequestEvent{Page: 1})
	}
	if got := s.depth(); got != emitted {
		t.Errorf("depth = %d with the downstream sink stalled, want %d", got, emitted)
	}
	close(log.gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.depth() != 0 || s.Delivered() != emitted {
		t.Errorf("after Close: depth %d, delivered %d, want 0 and %d", s.depth(), s.Delivered(), emitted)
	}
}

// TestAsyncSinkConcurrentProducers: four producers share the sink; each
// one's events arrive complete and in its own emission order, and the
// accounting is exact (run under -race in CI).
func TestAsyncSinkConcurrentProducers(t *testing.T) {
	const producers, each = 4, 20 * slabRecords
	log := newEventLog()
	s := NewAsyncSink(log, producers*each, nil)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%2 == 0 {
					s.Request(obs.RequestEvent{Page: page.ID(i), Shard: p})
				} else {
					s.Eviction(obs.EvictionEvent{Page: page.ID(i), Shard: p})
				}
			}
		}(p)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() != 0 || s.Delivered() != producers*each {
		t.Fatalf("delivered %d, dropped %d, want %d and 0", s.Delivered(), s.Dropped(), producers*each)
	}
	var next [producers]int
	for _, e := range log.events {
		var p, i int
		var request bool
		switch e := e.(type) {
		case obs.RequestEvent:
			p, i, request = e.Shard, int(e.Page), true
		case obs.EvictionEvent:
			p, i = e.Shard, int(e.Page)
		}
		if i != next[p] || request != (i%2 == 0) {
			t.Fatalf("producer %d: got %+v where its event %d belongs", p, e, next[p])
		}
		next[p]++
	}
}

// requestLog is an eventLog that declares, as the shadow bank does, that
// it reads Request events only.
type requestLog struct{ *eventLog }

func (requestLog) RequestsOnly() bool { return true }

// TestAsyncSinkCopiesOnlyRequestsForRequestConsumer: in front of an
// obs.RequestConsumer the ring takes in the Request events alone. They
// all arrive, in emission order; the evictions and adaptations
// interleaved with them are neither delivered nor dropped. Then, with
// the consumer stalled and the ring too small, Delivered + Dropped still
// counts exactly the requests emitted, and what arrives is still only
// requests, in order.
func TestAsyncSinkCopiesOnlyRequestsForRequestConsumer(t *testing.T) {
	events := func(n int) (all, requests []any) {
		for i := 0; i < n; i++ {
			id := page.ID(1 + i)
			var e any
			switch i % 3 {
			case 0:
				e = obs.RequestEvent{Page: id, QueryID: uint64(i), Hit: i%2 == 0, Shard: i % 4,
					Meta: page.Meta{ID: id, Level: i % 3, MBR: geom.NewRect(0, 0, float64(i), 1), NumEntries: i}}
				requests = append(requests, e)
			case 1:
				e = obs.EvictionEvent{Page: id, Reason: obs.ReasonLRU, Criterion: float64(i), LRURank: i, Shard: i % 4}
			case 2:
				e = obs.AdaptEvent{Page: id, BetterSpatial: i, BetterLRU: i, OldC: i, NewC: i + 1, Shard: i % 4, Ref: uint64(i)}
			}
			all = append(all, e)
		}
		return all, requests
	}

	all, requests := events(5*slabRecords + 7)
	log := newEventLog()
	s := NewAsyncSink(requestLog{log}, 2*len(all), nil)
	for _, e := range all {
		emit(s, e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Delivered() != uint64(len(requests)) || s.Dropped() != 0 {
		t.Errorf("delivered %d, dropped %d, want %d requests and 0", s.Delivered(), s.Dropped(), len(requests))
	}
	if !reflect.DeepEqual(log.events, requests) {
		t.Fatalf("downstream got %d events, want exactly the %d requests in emission order", len(log.events), len(requests))
	}

	all, requests = events(20 * slabRecords)
	log = newEventLog()
	log.gate = make(chan struct{})
	s = NewAsyncSink(requestLog{log}, 2*slabRecords, nil)
	for _, e := range all {
		emit(s, e)
	}
	close(log.gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() == 0 {
		t.Error("no drops from a two-slab ring in front of a stalled consumer")
	}
	if got := s.Delivered() + s.Dropped(); got != uint64(len(requests)) {
		t.Errorf("delivered %d + dropped %d = %d, want the %d requests emitted", s.Delivered(), s.Dropped(), got, len(requests))
	}
	if uint64(len(log.events)) != s.Delivered() {
		t.Errorf("downstream saw %d events, sink says delivered %d", len(log.events), s.Delivered())
	}
	next := 0
	for _, e := range log.events {
		for next < len(requests) && !reflect.DeepEqual(e, requests[next]) {
			next++
		}
		if next == len(requests) {
			t.Fatalf("delivered %+v, which is not a request or is out of emission order", e)
		}
		next++
	}
}
