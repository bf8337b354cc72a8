package buffer_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/page"
)

// requestTap is an event consumer that reads requests only, as the
// shadow bank's ring does.
type requestTap struct {
	obs.NopSink
	n int
}

func (r *requestTap) Request(obs.RequestEvent) { r.n++ }
func (*requestTap) RequestsOnly() bool         { return true }

// TestServiceSinkBuildsNoEvent: the live service's sink is no event
// consumer. An engine it alone is attached to holds no event sink, so it
// builds no Request, Eviction or Adapt event, on every layout; teed with
// a request-only consumer, the engine sends that consumer its requests
// and builds no decision event. Either way the engines keep the signals
// themselves: every eviction reaches the service's merged counts.
func TestServiceSinkBuildsNoEvent(t *testing.T) {
	for _, spec := range []string{"bare", "locked", "sharded,shards=2", "async,shards=2"} {
		t.Run(spec, func(t *testing.T) {
			comp, err := buffer.ParseComposition(spec)
			if err != nil {
				t.Fatal(err)
			}
			asb := func(c int) buffer.Policy { return core.NewASB(c, core.DefaultASBOptions()) }
			pool, err := comp.Build(buffer.NewTestStore(t, 64), asb, 16)
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := pool.(interface{ Close() error }); ok {
				defer c.Close()
			}
			svc := live.NewService()
			tap := &requestTap{}
			for _, attached := range []struct {
				sink         obs.Sink
				wantRequests bool
			}{
				{svc.Sink(), false},
				{obs.Tee(svc.Sink(), tap), true},
			} {
				pool.SetSink(attached.sink)
				for i := range pool.Shards() {
					pool.View(i, func(e *buffer.Engine) {
						requests, decisions := buffer.EventSinks(e)
						if (requests != nil) != attached.wantRequests || decisions != nil {
							t.Errorf("shard %d sends requests to %T and decisions to %T", i, requests, decisions)
						}
					})
				}
				for i := 0; i < 500; i++ {
					if _, err := pool.Get(page.ID(1+(i*7)%64), buffer.AccessContext{QueryID: uint64(i)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			st := pool.Stats()
			if uint64(tap.n) != st.Requests/2 {
				t.Errorf("request consumer saw %d requests of the second %d", tap.n, st.Requests/2)
			}
			filed := uint64(0)
			svc.Signals().Counters.ByReason.Each(func(_ string, n uint64) { filed += n })
			if st.Evictions == 0 || filed != st.Evictions {
				t.Errorf("service filed %d evictions by reason, Stats say %d", filed, st.Evictions)
			}
		})
	}
}
