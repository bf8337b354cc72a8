package shadow_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/shadow"
	"repro/internal/page"
)

// TestSamplingAsyncShadowComposition drives the deployment stack —
// SamplingSink ∘ AsyncSink ∘ Bank — from concurrent producers and
// asserts the exact number of sampled events reaching the bank. The
// ring is sized to hold every forwarded event, so no drop is legal; the
// SamplingSink's atomic counter guarantees exactly total/every Request
// events pass regardless of interleaving. Run under -race in CI.
func TestSamplingAsyncShadowComposition(t *testing.T) {
	const (
		producers = 8
		perProd   = 1000
		every     = 4
		total     = producers * perProd
		forwarded = total / every
	)
	bank, err := shadow.NewBank([]shadow.Spec{{Policy: "LRU", Capacity: 8}}, core.Resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Size the ring for every event that can reach it — sampled requests
	// plus the unsampled evictions — so a drop is a bug, not backpressure.
	async := live.NewAsyncSink(bank, forwarded+producers*(perProd/100+1), nil)
	sink := obs.NewSamplingSink(async, every)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				id := page.ID(p*perProd + i%16 + 1)
				sink.Request(obs.RequestEvent{
					Page:    id,
					QueryID: uint64(p),
					Hit:     i%2 == 0,
					Meta:    page.Meta{ID: id},
				})
				// Non-request events pass the sampler unsampled and must
				// not perturb the bank's request accounting.
				if i%100 == 0 {
					sink.Eviction(obs.EvictionEvent{Page: id})
				}
			}
		}(p)
	}
	wg.Wait()
	async.Close()

	if d := async.Dropped(); d != 0 {
		t.Fatalf("async sink dropped %d events with a full-size ring", d)
	}
	if got := bank.RealRequests(); got != forwarded {
		t.Errorf("bank observed %d requests, want exactly %d (= %d/%d)",
			got, forwarded, total, every)
	}
	c := bank.Shadows()[0]
	if got := c.Hits() + c.Misses(); got != forwarded {
		t.Errorf("shadow replayed %d references, want %d", got, forwarded)
	}
}
