// Package live turns the offline event stream of package obs into a
// serving-grade metrics layer: an asynchronous bounded sink that
// decouples event consumers from the request path, and an HTTP service
// exposing Prometheus metrics, a health probe and a minimal dashboard
// that polls them.
//
// The overhead contract extends the one in package obs: with NopSink the
// hot path stays allocation-free; with an AsyncSink in front of an
// expensive consumer (JSONL encoding, the shadow bank) the hot path pays
// one copy of the event into a slab under a short mutex and one channel
// send per 64 events — O(1), never waiting on I/O; nothing for an event
// kind the consumer does not read — and saturation is surfaced as an
// explicit drop count instead of backpressure.
package live

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/page"
)

// eventKind discriminates the ring's tagged record.
type eventKind uint8

const (
	kindRequest eventKind = iota
	kindEviction
	kindAdapt
)

const (
	// slabRecords is the number of events handed to the drainer at once.
	slabRecords = 64
	// flushTick is how often the drainer takes over a partly filled slab;
	// it bounds how long an event can sit undelivered on a quiet pool.
	flushTick = 2 * time.Millisecond
)

// record is one event in a slab, by value: the kind plus the fields of
// the largest event (Request), 136 bytes. The two smaller events borrow
// its slots; Adapt, with more integers than there are slots, parks three
// of them in Meta's integer fields.
type record struct {
	kind           eventKind
	hit, coalesced bool      // Request
	shard          int32     // all three
	page           page.ID   // all three
	a              uint64    // Request.QueryID, Eviction.LRURank, Adapt.OldC
	b              uint64    // Eviction.Criterion (bits), Adapt.NewC
	reason         string    // Eviction
	meta           page.Meta // Request.Meta; Adapt.Ref, BetterSpatial, BetterLRU as ID, Level, NumEntries
}

// slab is a run of consecutive events.
type slab struct {
	n    int
	recs [slabRecords]record
}

// AsyncSink is a fixed-capacity multi-producer, single-consumer ring
// between event producers (the buffer manager and its policy, possibly
// many goroutines behind a buffer.Shared) and one downstream sink drained
// by a dedicated goroutine. The ring moves slabs, not events: producers
// append to the slab being filled under one short mutex — which puts all
// producers' events in one total order, the order the drainer replays —
// and whoever fills a slab hands it over with one channel send; the
// drainer dispatches a slab per wake-up, recycles it, and takes over a
// partly filled one every flushTick. Producers never block or allocate:
// when no slab is free, the newest event is dropped and counted. In
// front of an obs.RequestConsumer only Request events enter the ring;
// the others are neither delivered nor dropped, and Delivered + Dropped
// counts requests alone. Only
// the drainer goroutine touches the downstream sink, so single-goroutine
// sinks (JSONLSink) become safe behind an AsyncSink.
//
// Close drains the ring, stops the goroutine and flushes/closes the
// downstream sink if it supports it. Producers must stop emitting before
// Close is called (detach the sink from the manager first); events
// emitted after Close are dropped and counted, not delivered.
type AsyncSink struct {
	// down is read by the drainer, once, and by Close; requestsOnly says
	// that down is an obs.RequestConsumer.
	down         obs.Sink
	requestsOnly bool
	full         chan *slab

	// dropHook, when set, is invoked with 1 for every dropped event —
	// typically obs.(*Counters).AddDropped, so the drop count appears in
	// the same snapshot as the counters it qualifies.
	dropHook func(n uint64)

	done      chan struct{}
	closeOnce sync.Once
	closeErr  error

	// What every event writes has cache lines of its own: sharing one
	// with a neighbouring heap object that the drainer writes per event
	// (a ghost cache's counters were one) made every producer's Lock
	// wait for that line.
	_ [64]byte

	// mu orders the producers and guards the fields below it. Every send
	// on full happens under it, so slabs arrive in emission order; full
	// has room for every slab, so a send never blocks.
	mu       sync.Mutex
	cur      *slab   // being filled; nil until the next event takes a free one
	free     []*slab // emptied slabs, returned by the drainer
	accepted uint64  // events appended to a slab so far
	closed   bool
	dropped  atomic.Uint64

	_ [64]byte

	delivered atomic.Uint64
}

// DefaultRingCapacity is the AsyncSink capacity used when the caller
// passes capacity ≤ 0: large enough to ride out multi-millisecond
// downstream stalls at millions of events per second, small enough to
// bound memory to about 2 MiB.
const DefaultRingCapacity = 16384

// NewAsyncSink starts the drainer goroutine over a ring of the given
// capacity in events (≤ 0 selects DefaultRingCapacity; rounded up to
// whole slabs, at least two, so one can fill while one drains) in front
// of down. dropHook may be nil; see AsyncSink.
func NewAsyncSink(down obs.Sink, capacity int, dropHook func(n uint64)) *AsyncSink {
	if down == nil {
		down = obs.NopSink{}
	}
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	slabs := max((capacity+slabRecords-1)/slabRecords, 2)
	rc, requestsOnly := down.(obs.RequestConsumer)
	requestsOnly = requestsOnly && rc.RequestsOnly()
	s := &AsyncSink{
		down:         down,
		requestsOnly: requestsOnly,
		free:         make([]*slab, slabs),
		full:         make(chan *slab, slabs),
		done:         make(chan struct{}),
		dropHook:     dropHook,
	}
	backing := make([]slab, slabs)
	for i := range backing {
		s.free[i] = &backing[i]
	}
	go s.drain()
	return s
}

// drain dispatches slabs as they arrive and flushes a partly filled one
// every flushTick, until Close closes the channel behind the last slab.
// It loads down once, not once per event.
func (s *AsyncSink) drain() {
	defer close(s.done)
	down := s.down
	tick := time.NewTicker(flushTick)
	defer tick.Stop()
	for {
		select {
		case sl, ok := <-s.full:
			if !ok {
				return
			}
			for i := range sl.recs[:sl.n] {
				dispatch(down, &sl.recs[i])
			}
			s.delivered.Add(uint64(sl.n))
			sl.n = 0
			s.mu.Lock()
			s.free = append(s.free, sl)
			s.mu.Unlock()
		case <-tick.C:
			s.mu.Lock()
			s.handOver()
			s.mu.Unlock()
		}
	}
}

// handOver queues the slab being filled, if any, for the drainer. Must
// run under mu.
func (s *AsyncSink) handOver() {
	if s.cur != nil {
		s.full <- s.cur
		s.cur = nil
	}
}

// dispatch hands one record to down as the event it was made from.
func dispatch(down obs.Sink, r *record) {
	shard := int(r.shard)
	switch r.kind {
	case kindRequest:
		down.Request(obs.RequestEvent{Page: r.page, QueryID: r.a, Hit: r.hit, Shard: shard, Coalesced: r.coalesced, Meta: r.meta})
	case kindEviction:
		down.Eviction(obs.EvictionEvent{Page: r.page, Reason: r.reason, Criterion: math.Float64frombits(r.b), LRURank: int(r.a), Shard: shard})
	case kindAdapt:
		down.Adapt(obs.AdaptEvent{Page: r.page, BetterSpatial: r.meta.Level, BetterLRU: r.meta.NumEntries,
			OldC: int(r.a), NewC: int(r.b), Shard: shard, Ref: uint64(r.meta.ID)})
	}
}

// slot locks mu and returns the next record of the slab being filled —
// taking a free slab when there is none — tagged with kind, for the
// caller to fill in place and then commit. With the sink closed or no
// slab free it unlocks, drops and counts the event, and returns nil.
// The record still holds its previous event: the caller writes every
// field that dispatch reads for kind.
func (s *AsyncSink) slot(kind eventKind) *record {
	s.mu.Lock()
	if n := len(s.free); s.cur == nil && n > 0 && !s.closed {
		s.cur, s.free = s.free[n-1], s.free[:n-1]
	}
	sl := s.cur
	if sl == nil {
		s.mu.Unlock()
		s.dropped.Add(1)
		if s.dropHook != nil {
			s.dropHook(1)
		}
		return nil
	}
	r := &sl.recs[sl.n]
	r.kind = kind
	return r
}

// commit appends the record slot returned, hands the slab over if that
// filled it, and unlocks mu.
func (s *AsyncSink) commit() {
	s.accepted++
	if s.cur.n++; s.cur.n == slabRecords {
		s.handOver()
	}
	s.mu.Unlock()
}

// Request implements obs.Sink.
func (s *AsyncSink) Request(e obs.RequestEvent) {
	if r := s.slot(kindRequest); r != nil {
		r.shard, r.page, r.a, r.hit, r.coalesced, r.meta = int32(e.Shard), e.Page, e.QueryID, e.Hit, e.Coalesced, e.Meta
		s.commit()
	}
}

// Eviction implements obs.Sink.
func (s *AsyncSink) Eviction(e obs.EvictionEvent) {
	if s.requestsOnly {
		return
	}
	if r := s.slot(kindEviction); r != nil {
		r.shard, r.page, r.a, r.b, r.reason = int32(e.Shard), e.Page, uint64(e.LRURank), math.Float64bits(e.Criterion), e.Reason
		s.commit()
	}
}

// Adapt implements obs.Sink.
func (s *AsyncSink) Adapt(e obs.AdaptEvent) {
	if s.requestsOnly {
		return
	}
	if r := s.slot(kindAdapt); r != nil {
		r.shard, r.page, r.a, r.b = int32(e.Shard), e.Page, uint64(e.OldC), uint64(e.NewC)
		r.meta.ID, r.meta.Level, r.meta.NumEntries = page.ID(e.Ref), e.BetterSpatial, e.BetterLRU
		s.commit()
	}
}

// RequestsOnly implements obs.RequestConsumer: a ring in front of a
// request consumer reads requests alone, so an engine sends it no other
// kind.
func (s *AsyncSink) RequestsOnly() bool { return s.requestsOnly }

// Delivered returns how many events reached the downstream sink; it
// advances a slab at a time.
func (s *AsyncSink) Delivered() uint64 { return s.delivered.Load() }

// Dropped returns how many events were discarded because no slab was
// free (or the sink closed).
func (s *AsyncSink) Dropped() uint64 { return s.dropped.Load() }

// depth returns the number of events accepted and not yet delivered —
// the instantaneous backlog. A depth pinned near Capacity means the
// downstream sink cannot keep up.
func (s *AsyncSink) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.accepted - s.delivered.Load())
}

// capacity returns the ring capacity in events.
func (s *AsyncSink) capacity() int { return cap(s.full) * slabRecords }

// Close drains remaining events, stops the drainer and flushes (and, if
// owned, closes) the downstream sink. Idempotent; returns the first
// downstream finalization error. Producers must be detached first.
func (s *AsyncSink) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.handOver()
		close(s.full)
		s.mu.Unlock()
		<-s.done
		switch d := s.down.(type) {
		case interface{ Close() error }:
			s.closeErr = d.Close()
		case interface{ Flush() error }:
			s.closeErr = d.Flush()
		}
	})
	return s.closeErr
}
