package obs

// CriterionScale converts the float64 eviction criterion into the
// fixed-point int64 domain of the criterion histogram: nano-units.
// Quantiles keep the histogram's 12.5 % bound for criteria from 8e-9
// (8 units) up to 9.2e9 (the int64 limit); the sum is a float and does
// not wrap.
const CriterionScale = 1e9

// Signals is one engine's block of the live service's four signals:
// evictions by reason, adaptations by direction, the eviction-criterion
// histogram and the request-latency histogram. The engine that made it
// is its one writer, under its own serialization, with single-writer
// stores; any goroutine may read it (SignalSnapshot.Add). A
// SignalRegistry holds the blocks of every engine it is attached to and
// merges them when read.
type Signals struct {
	counters  Counters
	latency   histogram
	criterion histogram
}

// Evicted records one eviction: its reason and its criterion.
func (s *Signals) Evicted(reason string, criterion float64) {
	s.counters.evicted(reason)
	s.criterion.observe(int64(criterion*CriterionScale + 0.5))
}

// Adapted records one adaptation from candidate size oldC to newC.
func (s *Signals) Adapted(oldC, newC int) { s.counters.adapted(oldC, newC) }

// Timed records a latency sample of nanos that stands for weight
// requests.
func (s *Signals) Timed(nanos int64, weight uint64) { s.latency.observeN(nanos, weight) }

// SignalSnapshot is a point-in-time reading of one or more Signals
// blocks, summed.
type SignalSnapshot struct {
	Counters  Snapshot
	Latency   HistSnapshot // nanoseconds
	Criterion HistSnapshot // in CriterionScale units
}

// Add adds the block's current values to m.
func (m *SignalSnapshot) Add(b *Signals) {
	b.counters.addTo(&m.Counters)
	b.latency.addTo(&m.Latency)
	b.criterion.addTo(&m.Criterion)
}

// AddCounters adds c's counts to m.
func (m *SignalSnapshot) AddCounters(c *Counters) { c.addTo(&m.Counters) }
