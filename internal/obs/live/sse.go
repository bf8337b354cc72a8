package live

import (
	"sync"

	"repro/internal/obs"
)

// CTrajSample is one point of the live candidate-size trajectory (the
// Fig. 14 series): the ASB candidate-set size of one shard before and
// after one adaptation event, stamped with that shard's request count at
// the time (AdaptEvent.Ref — on a one-shard pool, the pool's).
type CTrajSample struct {
	Ref   uint64 `json:"ref"`
	Shard int    `json:"shard"`
	OldC  int    `json:"old"`
	NewC  int    `json:"new"`
}

// Broadcaster fans Adapt events out to any number of subscribers (SSE
// handlers). It implements obs.Sink via the embedded NopSink; Adapt
// (rare — one per overflow hit) takes a short mutex to walk the
// subscriber list. Slow subscribers lose samples instead of stalling the
// producer: sends into a subscriber's buffered channel never block.
type Broadcaster struct {
	obs.NopSink

	mu     sync.Mutex
	subs   map[uint64]chan CTrajSample
	nextID uint64
}

// newBroadcaster returns an empty broadcaster.
func newBroadcaster() *Broadcaster {
	return &Broadcaster{subs: make(map[uint64]chan CTrajSample)}
}

// Adapt implements obs.Sink: the sample is offered to every subscriber,
// dropping it for subscribers whose buffer is full.
func (b *Broadcaster) Adapt(e obs.AdaptEvent) {
	s := CTrajSample{Ref: e.Ref, Shard: e.Shard, OldC: e.OldC, NewC: e.NewC}
	b.mu.Lock()
	for _, ch := range b.subs {
		select {
		case ch <- s:
		default:
		}
	}
	b.mu.Unlock()
}

// subscribe registers a subscriber with the given channel buffer
// (≤ 0 selects 64) and returns its receive channel plus a cancel
// function. Cancel closes the channel; it is safe to call once.
func (b *Broadcaster) subscribe(buf int) (<-chan CTrajSample, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan CTrajSample, buf)
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	b.subs[id] = ch
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		if _, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(ch)
		}
		b.mu.Unlock()
	}
}
