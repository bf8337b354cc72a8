package buffer

import (
	"errors"

	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// asyncShard is the asynchronous-I/O state of one shard engine of a
// Shared pool with a write-back queue, which the engine reaches through
// Engine.async: the flight table of the non-blocking miss protocol, the
// shard whose latch the protocol drops around a physical read, and the
// pool's write-back queue. See the "I/O concurrency contract" section of
// DESIGN.md for the protocol.
type asyncShard struct {
	e *Engine
	// l is the engine's shard. Requests arrive holding its mutex; miss
	// releases it around reads and waits and re-acquires it with l.lock,
	// which replays the hits served meanwhile.
	l *shard
	// flight has one entry per page whose physical read is in progress
	// outside mu, shared by every concurrent miss for that page.
	flight map[page.ID]*inflight
	// spares are flight records no waiter saw, for the next leaders: as
	// many as have read this shard's store at once.
	spares []*inflight
	wb     *writeback
}

// miss is the non-blocking miss protocol for a page the engine found
// non-resident. It is entered and left with the shard lock held, and
// accounts the request exactly once, with the coalesced flag its event
// carries. Under the lock it checks, in order: the flight table
// (coalesce onto an in-progress read and wait for its result) and the
// write-back queue (read-your-writes: a queued dirty page is re-admitted
// without I/O). Only when both miss does it become the leader: it
// registers an inflight entry, releases the lock, reads the store, and
// re-acquires the lock to admit the page and publish it to the waiters,
// having taken each waiter's reference and each waiting Fix's pin.
//
// The request's trace (ctx.Trace, nil when unsampled) stays with the
// request across every unlock: the leader's store.Read and a waiter's
// io-wait are recorded outside the lock into the request's own tree,
// and the requests that use the engine meanwhile carry their own.
func (s *asyncShard) miss(id page.ID, ctx AccessContext, pin bool) (*page.Page, error) {
	e := s.e
	a := ctx.trace
	if fl, ok := s.flight[id]; ok {
		// Another request is reading this page right now: count a
		// coalesced miss and wait for its result outside the lock. The
		// event is emitted here, under the lock, with a zero Meta — the
		// waiter never observes the page while holding the lock, and
		// deferring emission past the unlock would interleave it with
		// other requests' events (documented accuracy caveat of the
		// shadow-cache contract).
		e.miss(true)
		e.emitMiss(id, ctx, true, nil)
		if fl.done == nil {
			fl.done = make(chan struct{})
		}
		if pin {
			fl.fixes++
		} else {
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
		// Re-acquire the lock to restore the caller's locking invariant.
		// The leader took this waiter's reference, and a Fix's pin, unless
		// the waiter gets an error.
		s.l.lock()
		err := fl.err
		if pin && err == nil {
			err = fl.aerr
		}
		if err != nil {
			return nil, err
		}
		return fl.page, nil
	}

	if pg, ok := s.wb.take(id, true); ok {
		// The page sits in the write-back queue: the store still holds
		// stale bytes, so the queued version is re-admitted directly —
		// no I/O.
		now := e.miss(true)
		e.emitMiss(id, ctx, true, &pg.Meta)
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
	now := e.miss(false)
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
		e.emitMiss(id, ctx, false, nil)
	} else {
		queued, meta := false, &rpg.Meta
		if fr = e.frames.Get(id); fr != nil {
			// A Put raced the page in while we read: its version is
			// newer — serve it and discard the read.
			published, meta = fr.Page, &fr.Meta
		} else if pg, ok := s.wb.take(id, true); ok {
			// Re-admitted dirty (by a Put) and evicted again while we
			// read: the queued version is newer than our read.
			published, queued, meta = pg, true, &pg.Meta
		}
		e.emitMiss(id, ctx, false, meta)
		// The leader's and each waiting Get's reference, on the page the
		// read resolved to, before admission may requeue a taken one.
		for range fl.gets + 1 {
			published.Acquire()
		}
		if published == rpg {
			fr, aerr = e.admit(rpg, now, ctx)
			rpg.Release()
		} else {
			if queued {
				fr, aerr = s.readmit(published, now, ctx)
			}
			drop(e.recycler, rpg, nil) // thrown away
		}
		if aerr == nil {
			// Each waiting Fix's pin and reference, on the frame it would
			// otherwise have to look up after its wake-up.
			fr.pins += fl.fixes
			for range fl.fixes {
				published.Acquire()
			}
		}
	}
	// Publish: fields first, then unregister, then close — all under
	// the lock, so the close happens-before any waiter's field read
	// and a failed read leaves no residue for later misses. Waiting Gets
	// get the resolved bytes even when only admission failed, waiting
	// Fixes that admission error (errAllPinned is the leader's error, not
	// a Get's). No channel means no waiter ever found the entry: it
	// becomes a spare.
	delete(s.flight, id)
	if fl.done != nil {
		fl.page, fl.err, fl.aerr = published, rerr, aerr
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

// readmit admits a page taken back from the write-back queue, with take's
// reference. It stays dirty: its canceled write must happen via a later
// eviction or Flush. When it cannot be admitted (all frames pinned) the
// dirty page must not be lost — its write and reference go back.
func (s *asyncShard) readmit(pg *page.Page, now uint64, ctx AccessContext) (*Frame, error) {
	fr, err := s.e.admit(pg, now, ctx)
	if err != nil {
		if werr := s.e.writeOut(pg, true, ctx.trace); werr != nil {
			err = errors.Join(err, werr)
		}
		return nil, err
	}
	pg.Release()
	fr.Dirty = true
	return fr, nil
}
