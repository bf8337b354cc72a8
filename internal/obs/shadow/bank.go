package shadow

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/obs"
)

// Spec names one shadow configuration: a policy (by factory name, e.g.
// "LRU", "SLRU 50%", "ASB") simulated at a capacity in frames.
type Spec struct {
	Policy   string
	Capacity int
}

// Resolver maps a policy name to the factory that builds it — the hook
// that keeps this package decoupled from the policy registry. Commands
// pass core-backed resolvers (core.Resolver); tests pass stubs.
type Resolver func(name string) (buffer.PolicyFactory, error)

// DefaultPolicies are the what-if alternatives a default bank simulates
// at the real capacity: the classic baseline, the static combination and
// the paper's self-tuning proposal.
func DefaultPolicies() []string { return []string{"LRU", "SLRU 50%", "ASB"} }

// DefaultLadder is the capacity ladder (multipliers of the real
// capacity) the real policy is simulated at for the online miss-ratio
// curve. The 1× rung doubles as a self-check: its shadow replays the
// real configuration, so its hit ratio should track the real pool's.
func DefaultLadder() []float64 { return []float64{0.5, 1, 2, 4} }

// Specs builds the default shadow set for a pool running realPolicy at
// capacity frames: every policy in policies at capacity (what-if), plus
// realPolicy at each ladder rung (miss-ratio curve). Duplicate
// (policy, capacity) pairs and rungs below 2 frames are dropped by
// NewBank.
func Specs(realPolicy string, capacity int, policies []string, ladder []float64) []Spec {
	var specs []Spec
	for _, p := range policies {
		specs = append(specs, Spec{Policy: p, Capacity: capacity})
	}
	for _, m := range ladder {
		specs = append(specs, Spec{Policy: realPolicy, Capacity: int(float64(capacity)*m + 0.5)})
	}
	return specs
}

// Bank drives a set of shadow caches from one obs event stream and
// tracks the real pool's hit ratio alongside, deriving the regret gauge:
// real hit ratio minus the best shadow's hit ratio. A negative regret
// means some simulated configuration is beating the deployed one on the
// live traffic — the alertable signal.
//
// Bank implements obs.Sink. Request events drive every cache under one
// mutex; all other events are ignored (replacement simulation needs only
// the reference string), which the bank declares as an
// obs.RequestConsumer, so a ring in front of it carries requests alone. The mutex makes the bank safe for concurrent
// producers, but the intended deployment is behind a live.AsyncSink —
// one drain goroutine, no contention on the request path — optionally
// behind an obs.SamplingSink to trade shadow fidelity for event-rate
// headroom. All accessors read atomics and may be called from any
// goroutine (the gauge scrape path).
type Bank struct {
	obs.NopSink

	mu     sync.Mutex
	caches []*Cache

	realReqs atomic.Uint64
	realHits atomic.Uint64
}

// NewBank builds one shadow cache per spec. Specs are deduplicated by
// (policy, capacity) and specs with a capacity below 2 frames are
// skipped (the minimum every standard policy constructor accepts);
// resolving a policy name can fail, which is the only error path.
// window ≤ 0 selects defaultWindow for every cache's rolling hit-ratio
// window.
func NewBank(specs []Spec, resolve Resolver, window int) (*Bank, error) {
	b := &Bank{}
	seen := make(map[Spec]bool, len(specs))
	for _, sp := range specs {
		if sp.Capacity < 2 || seen[sp] {
			continue
		}
		seen[sp] = true
		factory, err := resolve(sp.Policy)
		if err != nil {
			return nil, fmt.Errorf("shadow: %w", err)
		}
		pol := factory(sp.Capacity)
		if pol == nil {
			return nil, fmt.Errorf("shadow: factory for %q returned nil", sp.Policy)
		}
		b.caches = append(b.caches, NewCache(sp.Policy, pol, sp.Capacity, window))
	}
	// Deterministic order for gauges and CSV columns:
	// by policy name, then capacity.
	sort.Slice(b.caches, func(i, j int) bool {
		if b.caches[i].policyName != b.caches[j].policyName {
			return b.caches[i].policyName < b.caches[j].policyName
		}
		return b.caches[i].capacity < b.caches[j].capacity
	})
	return b, nil
}

// Request implements obs.Sink: the real outcome feeds the regret
// baseline, then every shadow cache replays the reference.
func (b *Bank) Request(e obs.RequestEvent) {
	b.realReqs.Add(1)
	if e.Hit {
		b.realHits.Add(1)
	}
	b.mu.Lock()
	for _, c := range b.caches {
		c.Ref(e.Page, e.Meta, e.QueryID)
	}
	b.mu.Unlock()
}

// RequestsOnly implements obs.RequestConsumer: the bank reads requests
// alone.
func (b *Bank) RequestsOnly() bool { return true }

// Shadows returns the bank's caches in their deterministic order. The
// slice is shared; callers must not mutate it.
func (b *Bank) Shadows() []*Cache { return b.caches }

// Len returns the number of shadow caches.
func (b *Bank) Len() int { return len(b.caches) }

// RealRequests returns the number of Request events observed.
func (b *Bank) RealRequests() uint64 { return b.realReqs.Load() }

// realHitRatio returns the real pool's cumulative hit ratio as seen
// through the event stream (which, behind a SamplingSink, is the sampled
// stream's ratio).
func (b *Bank) realHitRatio() float64 {
	r := b.realReqs.Load()
	if r == 0 {
		return 0
	}
	return float64(b.realHits.Load()) / float64(r)
}

// Regret returns the real policy's cumulative hit ratio minus the best
// shadow's, over the same observed stream. Negative regret means an
// alternative configuration is winning; shadows simulating larger
// capacities naturally drive it negative, so capacity-ladder rungs above
// 1× are excluded — regret compares configurations the deployed pool
// could have had at its actual size.
func (b *Bank) Regret() float64 {
	real := b.realHitRatio()
	best := 0.0
	found := false
	for _, c := range b.caches {
		if c.capacity > b.referenceCapacity() {
			continue
		}
		if r := c.HitRatio(); !found || r > best {
			best, found = r, true
		}
	}
	if !found {
		return 0
	}
	return real - best
}

// referenceCapacity is the largest capacity not exceeding any other —
// in practice the real pool's capacity, recovered as the most common
// capacity among the what-if shadows. With only ladder shadows it is
// the smallest capacity, making regret a conservative comparison.
func (b *Bank) referenceCapacity() int {
	counts := make(map[int]int, len(b.caches))
	for _, c := range b.caches {
		counts[c.capacity]++
	}
	ref, n := 0, 0
	for c, cnt := range counts {
		if cnt > n || (cnt == n && c < ref) {
			ref, n = c, cnt
		}
	}
	return ref
}
