// Package core implements the page-replacement strategies studied and
// proposed in Brinkhoff, "A Robust and Self-Tuning Page-Replacement
// Strategy for Spatial Database Systems" (EDBT 2002):
//
//   - LRU and FIFO — classic baselines;
//   - LRU-T and LRU-P — type- and priority-based LRU variants (§2.1);
//   - LRU-K — the history-based algorithm of O'Neil, O'Neil and Weikum,
//     with query-correlated reference handling (§2.2);
//   - SLRU — the static combination that draws a candidate set with LRU
//     and picks the victim spatially (§4.1);
//   - the five spatial strategies A, EA, M, EM, EO, which evict the page
//     with the smallest spatial criterion (§2.3): the SLRU whose
//     candidate set is the whole buffer;
//   - ASB — the adaptable spatial buffer, the paper's headline: an SLRU
//     main part whose candidate-set size self-tunes through a FIFO
//     overflow buffer (§4.2).
//
// The three share one candidate window, a heap over the candidate set
// (see SLRU), so a victim or a demotion costs O(log c) at any c.
//
// All policies implement buffer.Policy; Factories enumerates constructors
// for the experiment harness. A policy only decides: Victim returns a
// buffer.Choice — the frame plus reason, deciding value and rank — and
// the engine turns it into the victim-select span and the Eviction
// event. No policy holds a sink: what ASB reports of its own, one Adapt
// event per overflow hit, goes through the AccessContext of the request
// it is serving, to the engine's sink.
package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/buffer"
	"repro/internal/page"
)

// Factory constructs a fresh policy sized for a buffer of the given
// capacity (in frames). Policies with capacity-relative parameters (SLRU's
// candidate set, ASB's overflow buffer) derive them here.
type Factory struct {
	// Name of the produced policy, e.g. "LRU-2" or "ASB".
	Name string
	// New builds a policy instance for a buffer of capacity frames; a
	// shared pool calls it once per shard, with the shard's capacity.
	New buffer.PolicyFactory
}

// StandardFactories returns the policies compared in the paper's
// evaluation, keyed by the names used in its figures.
func StandardFactories() []Factory {
	return []Factory{
		{Name: "LRU", New: func(int) buffer.Policy { return NewLRU() }},
		{Name: "LRU-T", New: func(int) buffer.Policy { return NewLRUT() }},
		{Name: "LRU-P", New: func(int) buffer.Policy { return NewLRUP() }},
		{Name: "LRU-2", New: func(int) buffer.Policy { return NewLRUK(2) }},
		{Name: "LRU-3", New: func(int) buffer.Policy { return NewLRUK(3) }},
		{Name: "LRU-5", New: func(int) buffer.Policy { return NewLRUK(5) }},
		{Name: "A", New: func(int) buffer.Policy { return NewSpatial(page.CritA) }},
		{Name: "EA", New: func(int) buffer.Policy { return NewSpatial(page.CritEA) }},
		{Name: "M", New: func(int) buffer.Policy { return NewSpatial(page.CritM) }},
		{Name: "EM", New: func(int) buffer.Policy { return NewSpatial(page.CritEM) }},
		{Name: "EO", New: func(int) buffer.Policy { return NewSpatial(page.CritEO) }},
		{Name: "SLRU 50%", New: func(c int) buffer.Policy { return NewSLRU(page.CritA, fracOf(c, 0.50)) }},
		{Name: "SLRU 25%", New: func(c int) buffer.Policy { return NewSLRU(page.CritA, fracOf(c, 0.25)) }},
		{Name: "ASB", New: func(c int) buffer.Policy { return NewASB(c, DefaultASBOptions()) }},
		{Name: "CLOCK", New: func(int) buffer.Policy { return NewClock() }},
		{Name: "PIN", New: func(int) buffer.Policy { return NewPinLevels(1) }},
	}
}

// factoryIndex is the memoized name → Factory map behind FactoryByName:
// the standard registry plus extra baselines (FIFO) that are resolvable
// by name without appearing in the paper's figure set. Factories are
// stateless constructors, so one shared map serves every caller.
var factoryIndex = sync.OnceValue(func() map[string]Factory {
	idx := make(map[string]Factory)
	for _, f := range StandardFactories() {
		idx[f.Name] = f
	}
	idx["FIFO"] = Factory{Name: "FIFO", New: func(int) buffer.Policy { return NewFIFO() }}
	return idx
})

// FactoryByName returns the factory with the given name. Beyond the
// fixed registry names it accepts parameterized specs of the form
// NAME:PARAM[:PARAM...] — see ParseSpec for the grammar.
func FactoryByName(name string) (Factory, error) {
	if f, ok := factoryIndex()[name]; ok {
		return f, nil
	}
	if strings.ContainsRune(name, ':') {
		return ParseSpec(name)
	}
	return Factory{}, fmt.Errorf("core: unknown policy %q (standard names, FIFO, or a spec like %q, %q, %q)",
		name, "LRU-K:4", "SLRU:EA:0.25", "ASB:A:0.2")
}

// Resolver maps a standard policy name to its buffer.PolicyFactory — the
// name-to-constructor hook consumers that must stay decoupled from this
// registry (obs/shadow's Bank) accept as a function value.
func Resolver(name string) (buffer.PolicyFactory, error) {
	f, err := FactoryByName(name)
	if err != nil {
		return nil, err
	}
	return f.New, nil
}

// fracOf returns round(frac·n), at least 1.
func fracOf(n int, frac float64) int {
	v := int(frac*float64(n) + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}
