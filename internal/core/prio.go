package core

import (
	"sort"

	"repro/internal/buffer"
	"repro/internal/core/intrusive"
	"repro/internal/obs"
	"repro/internal/page"
)

// PriorityFunc assigns a replacement priority to a page: the higher the
// priority, the longer the page should stay in the buffer (paper §2.1).
type PriorityFunc func(m page.Meta) int

// TypePriority is the LRU-T assignment: object pages are dropped first,
// then data pages; directory pages stay longest.
func TypePriority(m page.Meta) int {
	switch m.Type {
	case page.TypeObject:
		return 0
	case page.TypeData:
		return 1
	default:
		return 2
	}
}

// LevelPriority is the LRU-P assignment: object pages have priority 0 and
// the priority of a SAM page grows with its height in the tree, so the
// root has the highest priority — a generalization of pinning the top
// levels of the index (Leutenegger & Lopez).
func LevelPriority(m page.Meta) int {
	if m.Type == page.TypeObject {
		return 0
	}
	return 1 + m.Level
}

// PriorityLRU keeps one LRU chain per priority class and always evicts
// from the lowest-priority non-empty class. With TypePriority it is the
// paper's LRU-T, with LevelPriority its LRU-P.
//
// Each class chain is an intrusive list; a frame's class is stashed in
// Frame.Tag so eviction finds its chain without recomputing the priority.
// The set of class IDs is maintained sorted as classes appear (a handful
// of cold-path insertions for any real priority function), so victim
// selection iterates ascending without sorting — the per-call
// allocate-and-sort of the naive implementation is gone from the
// steady-state path.
type PriorityLRU struct {
	name string
	prio PriorityFunc
	// classes maps priority → LRU chain (front = MRU). Chains persist
	// across Reset so steady-state replays reuse them.
	classes map[int]*intrusive.List[*buffer.Frame]
	// classIDs is the sorted key set of classes.
	classIDs []int
}

// NewLRUT returns the type-based LRU policy (paper §2.1).
func NewLRUT() *PriorityLRU {
	return NewPriorityLRU("LRU-T", TypePriority)
}

// NewLRUP returns the priority-based (tree-level) LRU policy (paper §2.1).
func NewLRUP() *PriorityLRU {
	return NewPriorityLRU("LRU-P", LevelPriority)
}

// NewPriorityLRU returns an LRU policy stratified by the given priority
// function.
func NewPriorityLRU(name string, prio PriorityFunc) *PriorityLRU {
	return &PriorityLRU{
		name:    name,
		prio:    prio,
		classes: make(map[int]*intrusive.List[*buffer.Frame]),
	}
}

// Name implements buffer.Policy.
func (p *PriorityLRU) Name() string { return p.name }

// class returns the chain for the given priority, creating it (and
// inserting the ID into the sorted key set) on first sight.
func (p *PriorityLRU) class(c int) *intrusive.List[*buffer.Frame] {
	if l, ok := p.classes[c]; ok {
		return l
	}
	l := new(intrusive.List[*buffer.Frame])
	*l = intrusive.NewList(frameHooks)
	p.classes[c] = l
	i := sort.SearchInts(p.classIDs, c)
	p.classIDs = append(p.classIDs, 0)
	copy(p.classIDs[i+1:], p.classIDs[i:])
	p.classIDs[i] = c
	return l
}

// OnAdmit implements buffer.Policy.
func (p *PriorityLRU) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	c := p.prio(f.Meta)
	f.Tag = uint32(int32(c)) // sign-preserving for negative custom priorities
	p.class(c).PushFront(f)
}

// OnHit implements buffer.Policy.
func (p *PriorityLRU) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.classes[int(int32(f.Tag))].MoveToFront(f)
}

// Victim implements buffer.Policy: the LRU frame of the lowest-priority
// class containing an unpinned frame, with that class as its deciding
// value and its rank within the class.
func (p *PriorityLRU) Victim(ctx buffer.AccessContext) buffer.Choice {
	for _, c := range p.classIDs {
		if f, rank := firstUnpinned(p.classes[c], false); f != nil {
			return buffer.Choice{Frame: f, Reason: obs.ReasonPriority, CritKind: "class", Win: float64(c), Rank: rank}
		}
	}
	return buffer.Choice{Reason: obs.ReasonPriority, CritKind: "class", Rank: -1}
}

// OnEvict implements buffer.Policy.
func (p *PriorityLRU) OnEvict(f *buffer.Frame) {
	p.classes[int(int32(f.Tag))].Remove(f)
}

// Reset implements buffer.Policy: the chains are emptied but the class
// map and sorted key set are kept for reuse.
func (p *PriorityLRU) Reset() {
	for _, l := range p.classes {
		l.Clear()
	}
}
