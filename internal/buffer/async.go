package buffer

import (
	"errors"
	"fmt"

	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// AsyncPool is the asynchronous-I/O layer over a Router: it serves
// every shard engine's misses with the non-blocking protocol — the
// shard lock protects only in-memory state, the physical read happens
// outside it (with per-shard singleflight coalescing of concurrent
// misses for the same page) — and dirty evicted pages drain through one
// shared bounded background write-back queue. See the "I/O concurrency
// contract" section of DESIGN.md for the protocol.
//
// Semantics relative to the synchronous router:
//
//   - Logical counters (Stats) are identical for single-threaded
//     read-only workloads; under concurrency, coalesced misses are
//     additionally counted in Stats.Coalesced, so DiskReads stays the
//     physical read count.
//   - Dirty write-backs are asynchronous. Flush, Clear and Close drain
//     the queue before returning; until then the pool itself serves the
//     queued versions on a miss (read-your-writes), never the stale
//     store.
//
// Call Close when done with the pool to stop the writer goroutines; an
// un-Closed pool leaks them but is otherwise harmless (they idle on an
// empty queue).
type AsyncPool struct {
	*Router
	wb *writeback
}

// asyncShard is the async layer's state for one shard engine, which
// reaches it through Engine.async: the flight table of the non-blocking
// miss protocol, the shard lock the protocol drops around a physical
// read, and the pool's write-back queue.
type asyncShard struct {
	e *Engine
	// l is the shard's lock layer. Requests arrive holding its mutex; miss
	// releases it around reads and waits and re-acquires it with l.lock,
	// which replays the hits served meanwhile.
	l *LockedEngine
	// flight has one entry per page whose physical read is in progress
	// outside mu, shared by every concurrent miss for that page.
	flight map[page.ID]*inflight
	// spares are flight records no waiter saw, for the next leaders: as
	// many as have read this shard's store at once.
	spares []*inflight
	wb     *writeback
}

// Async stacks the asynchronous-I/O layer on a router, with wbWorkers
// background goroutines writing dirty evicted pages to the store from a
// queue of wbQueue pages (Composition.WritebackWorkers/WritebackQueue;
// < 1 selects the defaults). The router must not be used directly
// afterwards (the layer overrides its barrier operations); it must not
// already carry an async layer.
func Async(r *Router, wbWorkers, wbQueue int) *AsyncPool {
	p := &AsyncPool{Router: r, wb: newWriteback(r.store, wbWorkers, wbQueue)}
	for _, sh := range r.shards {
		sh.e.async = &asyncShard{e: sh.e, l: sh, flight: make(map[page.ID]*inflight), wb: p.wb}
	}
	return p
}

// miss is the non-blocking miss protocol for a page the engine found
// non-resident. It is entered and left with the shard lock held. Under
// the lock it checks, in order: the flight table (coalesce onto an
// in-progress read) and the write-back queue (read-your-writes: a
// queued dirty page is re-admitted without I/O). Only when both miss
// does it become the leader: it registers an inflight entry, releases
// the lock, reads the store, and re-acquires the lock to publish the
// result to any waiters and admit the page.
//
// counted flips when the request has been accounted (exactly one
// Request event per call); the loop only repeats for Fix waiters, whose
// pin requires a resident frame and who therefore retry after the
// leader's publication until they can pin (or become leaders
// themselves).
//
// The request's trace (ctx.Trace, nil when unsampled) stays with the
// request across every unlock: the leader's store.Read and a waiter's
// io-wait are recorded outside the lock into the request's own tree,
// and the requests that use the engine meanwhile carry their own.
func (s *asyncShard) miss(id page.ID, ctx AccessContext, pin bool) (*page.Page, error) {
	e := s.e
	a := ctx.trace
	counted := false
	for {
		if fl, ok := s.flight[id]; ok {
			// Another request is reading this page right now: count a
			// coalesced miss and wait for its result outside the lock. The
			// event is emitted here, under the lock, with a zero Meta — the
			// waiter never observes the page while holding the lock, and
			// deferring emission past the unlock would interleave it with
			// other requests' events (documented accuracy caveat of the
			// shadow-cache contract).
			if !counted {
				e.miss(true)
				e.emitMiss(id, ctx, true, page.Meta{})
				counted = true
			}
			if fl.done == nil {
				fl.done = make(chan struct{})
			}
			if !pin {
				fl.gets++
			}
			done := fl.done
			s.l.mu.Unlock()

			widx := a.Start(tracing.KindIOWait)
			<-done
			if a != nil {
				sp := a.At(widx)
				sp.Page = id
				sp.Hit = true // coalesced: shared another request's read
				a.End(widx)
			}
			// Re-acquire the lock: to restore the caller's locking
			// invariant, and for Fix to find the frame.
			s.l.lock()
			if fl.err != nil {
				return nil, fl.err
			}
			if !pin {
				// Get needs only the bytes; the leader admitted (or
				// resolved) the page and took this waiter's reference.
				return fl.page, nil
			}
			// Fix must pin a resident frame. It may already be evicted
			// again, in which case the loop coalesces or leads a fresh read
			// — without recounting.
			if fr := e.frames.get(id); fr != nil {
				fr.pins++
				fr.Page.Acquire()
				return fr.Page, nil
			}
			continue
		}

		if pg, ok := s.wb.take(id); ok {
			// The page sits in the write-back queue: the store still holds
			// stale bytes, so the queued version is re-admitted directly —
			// no I/O.
			var now uint64
			if !counted {
				now = e.miss(true)
				e.emitMiss(id, ctx, true, pg.Meta)
			} else {
				now = e.tick()
			}
			fr, err := s.readmit(pg, now, ctx)
			if err != nil {
				return nil, err
			}
			if pin {
				fr.pins++
			}
			fr.Page.Acquire()
			return fr.Page, nil
		}

		// Leader: register the read and perform it outside the lock. The
		// miss is counted now, but its event is emitted at publish time
		// (under the re-acquired lock, before admission) so it can carry
		// the Meta of the page the request actually resolved to.
		var now uint64
		emitPending := !counted
		if !counted {
			now = e.miss(false)
		} else {
			// A Fix waiter whose page was evicted again before it could pin
			// it: counted (and reported) as coalesced, it now reads for itself
			// after all, and DiskReads must say so.
			e.stats.Coalesced--
			now = e.tick()
		}
		var fl *inflight
		if n := len(s.spares); n > 0 {
			fl, s.spares = s.spares[n-1], s.spares[:n-1]
		} else {
			fl = &inflight{}
		}
		s.flight[id] = fl
		s.l.mu.Unlock()
		rpg, rerr := readPage(e.store, a, id)
		s.l.lock()
		published := rpg
		var fr *Frame
		var aerr error
		if rerr != nil {
			// The counted miss still emits exactly one event; no page
			// materialized, so its Meta stays zero.
			if emitPending {
				e.emitMiss(id, ctx, false, page.Meta{})
			}
		} else if fr = e.frames.get(id); fr != nil {
			// A Put raced the page in while we read: its version is
			// newer — serve it and discard the read.
			published = fr.Page
			if emitPending {
				e.emitMiss(id, ctx, false, fr.Meta)
			}
		} else if pg, ok := s.wb.take(id); ok {
			// Re-admitted dirty (by a Put) and evicted again while we
			// read: the queued version is newer than our read.
			published = pg
			if emitPending {
				e.emitMiss(id, ctx, false, pg.Meta)
			}
			fr, aerr = s.readmit(pg, now, ctx)
		} else {
			if emitPending {
				e.emitMiss(id, ctx, false, rpg.Meta)
			}
			fr, aerr = e.admit(rpg, now, ctx)
		}
		if rerr == nil {
			// The leader's reference moves from its read, which may have been
			// thrown away, to the page it resolved to; each waiting Get's too.
			for range fl.gets + 1 {
				published.Acquire()
			}
			rpg.Release()
		}
		// Publish: fields first, then unregister, then close — all under
		// the lock, so the close happens-before any waiter's field read
		// and a failed read leaves no residue for later misses. Waiters
		// get the resolved bytes even when only admission failed
		// (ErrAllPinned is the leader's error, not theirs). No channel
		// means no waiter ever found the entry: it becomes a spare.
		delete(s.flight, id)
		if fl.done != nil {
			fl.page, fl.err = published, rerr
			close(fl.done)
		} else {
			s.spares = append(s.spares, fl)
		}
		if rerr != nil {
			return nil, rerr
		}
		if aerr != nil {
			published.Release()
			return nil, aerr
		}
		if pin {
			fr.pins++
		}
		return fr.Page, nil
	}
}

// readmit admits a page taken back from the write-back queue. It stays
// dirty: its canceled write must eventually happen via a later eviction
// or Flush. When it cannot be admitted (all frames pinned) the dirty
// page must not be lost — its write is put back in motion.
func (s *asyncShard) readmit(pg *page.Page, now uint64, ctx AccessContext) (*Frame, error) {
	fr, err := s.e.admit(pg, now, ctx)
	if err != nil {
		if werr := s.e.writeOut(pg, true, ctx.trace); werr != nil {
			err = errors.Join(err, werr)
		}
		return nil, err
	}
	fr.Dirty = true
	return fr, nil
}

// InflightReads returns the number of physical reads currently in
// progress outside the shard locks — the summed occupancy of the
// per-shard flight tables. The shards are counted one after another, so
// under churn the sum is an instantaneous estimate, not an atomic
// snapshot — the usual multi-counter scrape contract.
func (p *AsyncPool) InflightReads() (n int) {
	for i := range p.shards {
		p.View(i, func(e *Engine) { n += len(e.async.flight) })
	}
	return n
}

// Writeback returns a snapshot of the background write-back queue
// counters.
func (p *AsyncPool) Writeback() WritebackMetrics { return p.wb.metrics() }

// Flush writes back all dirty resident pages, shard by shard, between
// two drains of the background write-back queue — so when Flush returns
// every write-back decided before the call is durable. The first drain
// leaves the per-shard flushes few writers to run behind. A write-back
// that starts after it can still be in flight when its page — put again
// meanwhile — is flushed; that version then joins the page's writer
// instead of being written alongside (see Engine.writeOut), and the
// second drain waits for it.
func (p *AsyncPool) Flush() error {
	if err := p.wb.drain(); err != nil {
		return fmt.Errorf("buffer: write-back drain: %w", err)
	}
	if err := p.Router.Flush(); err != nil {
		return err
	}
	if err := p.wb.drain(); err != nil {
		return fmt.Errorf("buffer: write-back drain: %w", err)
	}
	return nil
}

// Close flushes the pool (draining the write-back queue) and stops the
// background writer goroutines. The pool remains usable afterwards —
// with the queue closed, dirty evictions fall back to synchronous
// writes.
func (p *AsyncPool) Close() error {
	err := p.Flush()
	if cerr := p.wb.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Clear evicts everything, resets every shard's policy and zeroes all
// counters, draining the write-back queue first (and clearing its
// sticky error either way — Clear zeroes all accounting).
func (p *AsyncPool) Clear() error {
	err := p.wb.drain()
	p.wb.resetErr()
	if err != nil {
		return fmt.Errorf("buffer: write-back drain: %w", err)
	}
	return p.Router.Clear()
}

// SetTracer attaches a tracer to every shard (see Router.SetTracer) and
// to the background write-back workers, whose store writes record
// KindWriteback spans. A nil tracer detaches.
func (p *AsyncPool) SetTracer(t *tracing.Tracer) {
	p.Router.SetTracer(t)
	p.wb.tracer.Store(t)
}
