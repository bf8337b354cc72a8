package core_test

// This file preserves the pre-intrusive ("old style") implementations of
// every standard policy — container/list, container/ring, container/heap
// and per-frame aux boxes — as executable oracles. They are the
// implementations the intrusive rewrites replaced; the property test in
// equivalence_test.go replays random traces through both and asserts
// identical miss and eviction sequences, so any behavioral drift the
// refactor introduced shows up as a counterexample trace.
//
// The reference policies use only the exported buffer API and keep
// their per-frame state in a side map keyed by the frame the engine
// hands to every callback (entered in OnAdmit, deleted in OnEvict,
// dropped in Reset), so the production Frame carries nothing for them.
// They explain their victim in the returned buffer.Choice like the real
// ones, and deliberately allocate per operation — they are correctness
// baselines, not performance ones.

import (
	"container/heap"
	"container/list"
	"container/ring"
	"sort"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// ---------------------------------------------------------------- LRU --

type refLRU struct {
	order *list.List
	aux   map[*buffer.Frame]*list.Element
}

func newRefLRU() *refLRU {
	return &refLRU{order: list.New(), aux: make(map[*buffer.Frame]*list.Element)}
}

func (p *refLRU) Name() string { return "LRU" }

func (p *refLRU) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.aux[f] = p.order.PushFront(f)
}

func (p *refLRU) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.order.MoveToFront(p.aux[f])
}

func (p *refLRU) Victim(ctx buffer.AccessContext) buffer.Choice {
	rank := 0
	for e := p.order.Back(); e != nil; e = e.Prev() {
		if f := e.Value.(*buffer.Frame); !f.Pinned() {
			return buffer.Choice{Frame: f, Reason: obs.ReasonLRU, Rank: rank}
		}
		rank++
	}
	return buffer.Choice{}
}

func (p *refLRU) OnEvict(f *buffer.Frame) {
	p.order.Remove(p.aux[f])
	delete(p.aux, f)
}

func (p *refLRU) Reset() {
	p.order.Init()
	clear(p.aux)
}

// --------------------------------------------------------------- FIFO --

type refFIFO struct {
	order *list.List
	aux   map[*buffer.Frame]*list.Element
}

func newRefFIFO() *refFIFO {
	return &refFIFO{order: list.New(), aux: make(map[*buffer.Frame]*list.Element)}
}

func (p *refFIFO) Name() string { return "FIFO" }

func (p *refFIFO) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.aux[f] = p.order.PushBack(f)
}

func (p *refFIFO) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {}

func (p *refFIFO) Victim(ctx buffer.AccessContext) buffer.Choice {
	rank := 0
	for e := p.order.Front(); e != nil; e = e.Next() {
		if f := e.Value.(*buffer.Frame); !f.Pinned() {
			return buffer.Choice{Frame: f, Reason: obs.ReasonFIFO, Rank: rank}
		}
		rank++
	}
	return buffer.Choice{}
}

func (p *refFIFO) OnEvict(f *buffer.Frame) {
	p.order.Remove(p.aux[f])
	delete(p.aux, f)
}

func (p *refFIFO) Reset() {
	p.order.Init()
	clear(p.aux)
}

// ------------------------------------------------------- priority LRU --

type refPriorityLRU struct {
	name    string
	prio    func(page.Meta) int
	classes map[int]*list.List
	aux     map[*buffer.Frame]*refPrioAux
}

type refPrioAux struct {
	class int
	elem  *list.Element
}

func newRefPriorityLRU(name string, prio func(page.Meta) int) *refPriorityLRU {
	return &refPriorityLRU{name: name, prio: prio, classes: make(map[int]*list.List),
		aux: make(map[*buffer.Frame]*refPrioAux)}
}

func (p *refPriorityLRU) Name() string { return p.name }

func (p *refPriorityLRU) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	class := p.prio(f.Meta)
	l := p.classes[class]
	if l == nil {
		l = list.New()
		p.classes[class] = l
	}
	p.aux[f] = &refPrioAux{class: class, elem: l.PushFront(f)}
}

func (p *refPriorityLRU) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	aux := p.aux[f]
	p.classes[aux.class].MoveToFront(aux.elem)
}

func (p *refPriorityLRU) Victim(ctx buffer.AccessContext) buffer.Choice {
	classes := make([]int, 0, len(p.classes))
	for c, l := range p.classes {
		if l.Len() > 0 {
			classes = append(classes, c)
		}
	}
	sort.Ints(classes)
	for _, c := range classes {
		rank := 0
		for e := p.classes[c].Back(); e != nil; e = e.Prev() {
			if f := e.Value.(*buffer.Frame); !f.Pinned() {
				return buffer.Choice{Frame: f, Reason: obs.ReasonPriority, Win: float64(c), Rank: rank}
			}
			rank++
		}
	}
	return buffer.Choice{}
}

func (p *refPriorityLRU) OnEvict(f *buffer.Frame) {
	aux := p.aux[f]
	p.classes[aux.class].Remove(aux.elem)
	delete(p.aux, f)
}

func (p *refPriorityLRU) Reset() {
	p.classes = make(map[int]*list.List)
	clear(p.aux)
}

// -------------------------------------------------------------- LRU-K --

type refLRUK struct {
	k        int
	resident map[*buffer.Frame]struct{}
	hist     map[page.ID]*refHistRec
}

type refHistRec struct {
	times     []uint64
	lastQuery uint64
}

func newRefLRUK(k int) *refLRUK {
	return &refLRUK{
		k:        k,
		resident: make(map[*buffer.Frame]struct{}),
		hist:     make(map[page.ID]*refHistRec),
	}
}

func (p *refLRUK) Name() string { return "LRU-K" }

func (p *refLRUK) touch(id page.ID, now, q uint64) {
	rec := p.hist[id]
	if rec == nil {
		rec = &refHistRec{times: make([]uint64, p.k)}
		p.hist[id] = rec
	} else if rec.lastQuery == q {
		rec.times[0] = now
		return
	}
	copy(rec.times[1:], rec.times)
	rec.times[0] = now
	rec.lastQuery = q
}

func (p *refLRUK) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.resident[f] = struct{}{}
	p.touch(f.Meta.ID, now, ctx.QueryID)
}

func (p *refLRUK) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.touch(f.Meta.ID, now, ctx.QueryID)
}

func (p *refLRUK) Victim(ctx buffer.AccessContext) buffer.Choice {
	v := p.victim(ctx, true)
	if v == nil {
		v = p.victim(ctx, false)
	}
	c := buffer.Choice{Frame: v, Reason: obs.ReasonLRUK, Rank: -1}
	if v != nil {
		c.Win = float64(p.hist[v.Meta.ID].times[p.k-1])
	}
	return c
}

func (p *refLRUK) victim(ctx buffer.AccessContext, excludeCorrelated bool) *buffer.Frame {
	var best *buffer.Frame
	var bestK, best1 uint64
	for f := range p.resident {
		if f.Pinned() {
			continue
		}
		rec := p.hist[f.Meta.ID]
		if excludeCorrelated && rec.lastQuery == ctx.QueryID {
			continue
		}
		hk := rec.times[p.k-1]
		h1 := rec.times[0]
		if best == nil || hk < bestK || (hk == bestK && h1 < best1) ||
			(hk == bestK && h1 == best1 && f.Meta.ID < best.Meta.ID) {
			best, bestK, best1 = f, hk, h1
		}
	}
	return best
}

func (p *refLRUK) OnEvict(f *buffer.Frame) { delete(p.resident, f) }

func (p *refLRUK) Reset() {
	p.resident = make(map[*buffer.Frame]struct{})
	p.hist = make(map[page.ID]*refHistRec)
}

// ------------------------------------------------------------ spatial --

type refSpatial struct {
	crit page.Criterion
	h    refSpatialHeap
}

type refSpatialAux struct {
	idx  int
	crit float64
	use  uint64
}

func newRefSpatial(crit page.Criterion) *refSpatial {
	return &refSpatial{crit: crit, h: refSpatialHeap{aux: make(map[*buffer.Frame]*refSpatialAux)}}
}

func (p *refSpatial) Name() string { return p.crit.String() }

func (p *refSpatial) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.h.aux[f] = &refSpatialAux{crit: p.crit.Value(f.Meta), use: now}
	heap.Push(&p.h, f)
}

func (p *refSpatial) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	aux := p.h.aux[f]
	aux.use = now
	heap.Fix(&p.h, aux.idx)
}

func (p *refSpatial) Victim(ctx buffer.AccessContext) buffer.Choice {
	var parked []*buffer.Frame
	victim := buffer.Choice{Reason: obs.ReasonSpatial, Rank: -1}
	for p.h.Len() > 0 {
		f := p.h.frames[0]
		if !f.Pinned() {
			victim.Frame, victim.Win = f, p.h.aux[f].crit
			break
		}
		parked = append(parked, heap.Pop(&p.h).(*buffer.Frame))
	}
	for _, f := range parked {
		heap.Push(&p.h, f)
	}
	return victim
}

func (p *refSpatial) OnEvict(f *buffer.Frame) {
	aux := p.h.aux[f]
	if aux.idx >= 0 {
		heap.Remove(&p.h, aux.idx)
	}
	delete(p.h.aux, f)
}

func (p *refSpatial) Reset() {
	p.h.frames = nil
	clear(p.h.aux)
}

func (p *refSpatial) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	aux := p.h.aux[f]
	aux.crit = p.crit.Value(f.Meta)
	aux.use = now
	heap.Fix(&p.h, aux.idx)
}

type refSpatialHeap struct {
	frames []*buffer.Frame
	aux    map[*buffer.Frame]*refSpatialAux
}

func (h *refSpatialHeap) Len() int { return len(h.frames) }

func (h *refSpatialHeap) Less(i, j int) bool {
	a := h.aux[h.frames[i]]
	b := h.aux[h.frames[j]]
	if a.crit != b.crit {
		return a.crit < b.crit
	}
	return a.use < b.use
}

func (h *refSpatialHeap) Swap(i, j int) {
	h.frames[i], h.frames[j] = h.frames[j], h.frames[i]
	h.aux[h.frames[i]].idx = i
	h.aux[h.frames[j]].idx = j
}

func (h *refSpatialHeap) Push(x any) {
	f := x.(*buffer.Frame)
	h.aux[f].idx = len(h.frames)
	h.frames = append(h.frames, f)
}

func (h *refSpatialHeap) Pop() any {
	n := len(h.frames)
	f := h.frames[n-1]
	h.frames[n-1] = nil
	h.frames = h.frames[:n-1]
	h.aux[f].idx = -1
	return f
}

// --------------------------------------------------------------- SLRU --

type refSLRU struct {
	crit     page.Criterion
	candSize int
	order    *list.List
	aux      map[*buffer.Frame]*refSLRUAux
}

type refSLRUAux struct {
	elem *list.Element
	crit float64
}

func newRefSLRU(crit page.Criterion, candSize int) *refSLRU {
	return &refSLRU{crit: crit, candSize: candSize, order: list.New(),
		aux: make(map[*buffer.Frame]*refSLRUAux)}
}

func (p *refSLRU) Name() string { return "SLRU" }

func (p *refSLRU) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.aux[f] = &refSLRUAux{elem: p.order.PushFront(f), crit: p.crit.Value(f.Meta)}
}

func (p *refSLRU) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.order.MoveToFront(p.aux[f].elem)
}

func (p *refSLRU) Victim(ctx buffer.AccessContext) buffer.Choice {
	best := buffer.Choice{Reason: obs.ReasonSLRU, Rank: -1}
	seen := 0
	for e := p.order.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*buffer.Frame)
		seen++
		if !f.Pinned() {
			c := p.aux[f].crit
			if best.Frame == nil || c < best.Win {
				best.Frame, best.Win, best.Rank = f, c, seen-1
			}
		}
		if seen >= p.candSize && best.Frame != nil {
			break
		}
	}
	return best
}

func (p *refSLRU) OnEvict(f *buffer.Frame) {
	p.order.Remove(p.aux[f].elem)
	delete(p.aux, f)
}

func (p *refSLRU) Reset() {
	p.order.Init()
	clear(p.aux)
}

func (p *refSLRU) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	aux := p.aux[f]
	aux.crit = p.crit.Value(f.Meta)
	p.order.MoveToFront(aux.elem)
}

// ---------------------------------------------------------------- ASB --

type refASB struct {
	crit     page.Criterion
	mainCap  int
	initCand int
	step     int
	cand     int
	main     *list.List
	over     *list.List
	aux      map[*buffer.Frame]*refASBAux
}

type refASBAux struct {
	elem   *list.Element
	crit   float64
	inOver bool
}

func refClamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// newRefASB mirrors core.NewASB's sizing arithmetic with the paper's
// default options.
func newRefASB(capacity int) *refASB {
	overCap := int(0.20*float64(capacity) + 0.5)
	if overCap < 1 {
		overCap = 1
	}
	if overCap > capacity-1 {
		overCap = capacity - 1
	}
	mainCap := capacity - overCap
	a := &refASB{
		crit:     page.CritA,
		mainCap:  mainCap,
		initCand: refClamp(int(0.25*float64(mainCap)+0.5), 1, mainCap),
		step:     refClamp(int(0.01*float64(mainCap)+0.5), 1, mainCap),
		main:     list.New(),
		over:     list.New(),
		aux:      make(map[*buffer.Frame]*refASBAux),
	}
	a.cand = a.initCand
	return a
}

func (p *refASB) Name() string { return "ASB" }

func (p *refASB) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	aux := &refASBAux{crit: p.crit.Value(f.Meta)}
	p.aux[f] = aux
	aux.elem = p.main.PushFront(f)
	p.rebalance()
}

func (p *refASB) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	aux := p.aux[f]
	if !aux.inOver {
		p.main.MoveToFront(aux.elem)
		return
	}
	p.adapt(f, aux)
	p.over.Remove(aux.elem)
	aux.inOver = false
	aux.elem = p.main.PushFront(f)
	p.rebalance()
}

func (p *refASB) adapt(f *buffer.Frame, aux *refASBAux) {
	betterSpatial, betterLRU := 0, 0
	for e := p.over.Front(); e != nil; e = e.Next() {
		q := e.Value.(*buffer.Frame)
		if q == f {
			continue
		}
		if p.aux[q].crit > aux.crit {
			betterSpatial++
		}
		if q.LastUse > f.LastUse {
			betterLRU++
		}
	}
	margin := p.over.Len() / 4
	if margin < 1 {
		margin = 1
	}
	switch {
	case betterSpatial > betterLRU:
		p.cand = refClamp(p.cand-2*p.step, 1, p.mainCap)
	case betterLRU > betterSpatial+margin:
		p.cand = refClamp(p.cand+p.step, 1, p.mainCap)
	}
}

func (p *refASB) rebalance() {
	for p.main.Len() > p.mainCap {
		v, _ := p.mainVictim()
		if v == nil {
			return
		}
		aux := p.aux[v]
		p.main.Remove(aux.elem)
		aux.inOver = true
		aux.elem = p.over.PushBack(v)
	}
}

func (p *refASB) mainVictim() (*buffer.Frame, int) {
	var best *buffer.Frame
	var bestCrit float64
	bestRank := -1
	seen := 0
	for e := p.main.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*buffer.Frame)
		seen++
		if !f.Pinned() {
			c := p.aux[f].crit
			if best == nil || c < bestCrit {
				best, bestCrit, bestRank = f, c, seen-1
			}
		}
		if seen >= p.cand && best != nil {
			break
		}
	}
	return best, bestRank
}

func (p *refASB) Victim(ctx buffer.AccessContext) buffer.Choice {
	c := buffer.Choice{Reason: obs.ReasonASBOverflow}
	for e := p.over.Front(); e != nil; e = e.Next() {
		if f := e.Value.(*buffer.Frame); !f.Pinned() {
			c.Frame = f
			break
		}
		c.Rank++
	}
	if c.Frame == nil {
		c.Reason = obs.ReasonASBMain
		c.Frame, c.Rank = p.mainVictim()
	}
	if c.Frame != nil {
		c.Win = p.aux[c.Frame].crit
	}
	return c
}

func (p *refASB) OnEvict(f *buffer.Frame) {
	aux := p.aux[f]
	if aux.inOver {
		p.over.Remove(aux.elem)
	} else {
		p.main.Remove(aux.elem)
	}
	delete(p.aux, f)
}

func (p *refASB) Reset() {
	p.main.Init()
	p.over.Init()
	p.cand = p.initCand
	clear(p.aux)
}

func (p *refASB) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	aux := p.aux[f]
	aux.crit = p.crit.Value(f.Meta)
	if !aux.inOver {
		p.main.MoveToFront(aux.elem)
		return
	}
	p.over.Remove(aux.elem)
	aux.inOver = false
	aux.elem = p.main.PushFront(f)
	p.rebalance()
}

// -------------------------------------------------------------- CLOCK --

type refClock struct {
	hand *ring.Ring
	size int
	aux  map[*buffer.Frame]*refClockAux
}

type refClockAux struct {
	node *ring.Ring
	ref  bool
}

func newRefClock() *refClock { return &refClock{aux: make(map[*buffer.Frame]*refClockAux)} }

func (p *refClock) Name() string { return "CLOCK" }

func (p *refClock) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	n := ring.New(1)
	n.Value = f
	p.aux[f] = &refClockAux{node: n}
	if p.hand == nil {
		p.hand = n
	} else {
		p.hand.Prev().Link(n)
	}
	p.size++
}

func (p *refClock) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.aux[f].ref = true
}

func (p *refClock) Victim(ctx buffer.AccessContext) buffer.Choice {
	if p.hand == nil {
		return buffer.Choice{}
	}
	for i := 0; i < 2*p.size; i++ {
		f := p.hand.Value.(*buffer.Frame)
		aux := p.aux[f]
		if !f.Pinned() && !aux.ref {
			return buffer.Choice{Frame: f, Reason: obs.ReasonClock, Rank: -1}
		}
		if !f.Pinned() {
			aux.ref = false
		}
		p.hand = p.hand.Next()
	}
	return buffer.Choice{}
}

func (p *refClock) OnEvict(f *buffer.Frame) {
	aux := p.aux[f]
	if p.size == 1 {
		p.hand = nil
	} else {
		if p.hand == aux.node {
			p.hand = p.hand.Next()
		}
		aux.node.Prev().Unlink(1)
	}
	p.size--
	delete(p.aux, f)
}

func (p *refClock) Reset() {
	p.hand = nil
	p.size = 0
	clear(p.aux)
}

// ---------------------------------------------------------------- PIN --

type refPinLevels struct {
	minLevel int
	lru      *refLRU
}

func newRefPinLevels(minLevel int) *refPinLevels {
	return &refPinLevels{minLevel: minLevel, lru: newRefLRU()}
}

func (p *refPinLevels) Name() string { return "PIN" }

func (p *refPinLevels) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.lru.OnAdmit(f, now, ctx)
}

func (p *refPinLevels) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.lru.OnHit(f, now, ctx)
}

func (p *refPinLevels) Victim(ctx buffer.AccessContext) buffer.Choice {
	var fallback buffer.Choice
	rank := -1
	for e := p.lru.order.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*buffer.Frame)
		rank++
		if f.Pinned() {
			continue
		}
		c := buffer.Choice{Frame: f, Reason: obs.ReasonLRU, Rank: rank}
		if f.Meta.Level < p.minLevel {
			return c
		}
		if fallback.Frame == nil {
			fallback = c
		}
	}
	return fallback
}

func (p *refPinLevels) OnEvict(f *buffer.Frame) { p.lru.OnEvict(f) }

func (p *refPinLevels) Reset() { p.lru.Reset() }

// refFactories pairs every standard factory name with its old-style
// reference constructor; the capacity-relative parameters repeat the
// registry's arithmetic (fracOf = round, min 1).
func refFactories(capacity int) map[string]buffer.Policy {
	frac := func(f float64) int {
		v := int(f*float64(capacity) + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	typePrio := func(m page.Meta) int {
		switch m.Type {
		case page.TypeObject:
			return 0
		case page.TypeData:
			return 1
		default:
			return 2
		}
	}
	levelPrio := func(m page.Meta) int {
		if m.Type == page.TypeObject {
			return 0
		}
		return 1 + m.Level
	}
	return map[string]buffer.Policy{
		"LRU":      newRefLRU(),
		"FIFO":     newRefFIFO(),
		"LRU-T":    newRefPriorityLRU("LRU-T", typePrio),
		"LRU-P":    newRefPriorityLRU("LRU-P", levelPrio),
		"LRU-2":    newRefLRUK(2),
		"LRU-3":    newRefLRUK(3),
		"LRU-5":    newRefLRUK(5),
		"A":        newRefSpatial(page.CritA),
		"EA":       newRefSpatial(page.CritEA),
		"M":        newRefSpatial(page.CritM),
		"EM":       newRefSpatial(page.CritEM),
		"EO":       newRefSpatial(page.CritEO),
		"SLRU 50%": newRefSLRU(page.CritA, frac(0.50)),
		"SLRU 25%": newRefSLRU(page.CritA, frac(0.25)),
		"ASB":      newRefASB(capacity),
		"CLOCK":    newRefClock(),
		"PIN":      newRefPinLevels(1),
	}
}
