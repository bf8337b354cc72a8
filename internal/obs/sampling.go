package obs

import "sync/atomic"

// samplingSink forwards one in every N Request events to the wrapped
// sink and passes Eviction and Adapt events through unchanged. It decouples exact accounting from bulk capture: a JSONL
// file behind a samplingSink stays small under heavy load while the
// rare, decision-carrying events remain complete (exact request counters
// come from the pool's Stats, not from the sampled file).
//
// Sampling is deterministic — the 1st, N+1st, 2N+1st, … Request events
// are forwarded, counted by an atomic counter — so the sink is safe for
// concurrent producers and two runs over the same serialized stream
// select the same events.
type samplingSink struct {
	down  Sink
	every uint64
	seen  atomic.Uint64
}

// NewSamplingSink wraps down so that only one in every Request events is
// forwarded. every ≤ 1 returns down unchanged (no wrapper); a nil down
// returns NopSink.
func NewSamplingSink(down Sink, every int) Sink {
	if down == nil {
		return NopSink{}
	}
	if every <= 1 {
		return down
	}
	return &samplingSink{down: down, every: uint64(every)}
}

// Request implements Sink: every s.every-th event is forwarded.
func (s *samplingSink) Request(e RequestEvent) {
	if (s.seen.Add(1)-1)%s.every == 0 {
		s.down.Request(e)
	}
}

// Eviction implements Sink (pass-through).
func (s *samplingSink) Eviction(e EvictionEvent) { s.down.Eviction(e) }

// Adapt implements Sink (pass-through).
func (s *samplingSink) Adapt(e AdaptEvent) { s.down.Adapt(e) }
