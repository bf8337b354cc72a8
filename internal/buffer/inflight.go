package buffer

import "repro/internal/page"

// inflight is one in-progress physical read, shared by every concurrent
// miss for the same page on the same shard (per-shard singleflight).
//
// The first miss (the leader) registers the entry in its shard's flight
// table under the shard lock, performs the store read outside the lock,
// then re-acquires the lock to admit the page and publish: it fills
// page/err/aerr, removes the entry from the table and closes done — in
// that order, all under the lock, so the channel close happens-before
// any waiter's read of the fields. Later misses (waiters) find the
// entry, are counted as coalesced misses, and block on done outside the
// lock; none of them looks for the frame again.
//
// done is created by the first waiter, under the lock, and stays nil
// when there is none — the common case (a few reads in a hundred have a
// waiter on the benchmark's two-worker miss workload). A record that
// leaves the table without one was seen by its leader alone, who parks
// it, still zero, among the shard's spares for the next leaders (one per
// leader that read at once): the common case allocates nothing. A record
// a waiter saw is left to the GC.
//
// gets and fixes count the waiting Gets and Fixes. Before it publishes,
// the leader takes a reference on page for each waiting Get, and for
// each waiting Fix a pin on the admitted frame and a reference; when
// admission failed (aerr, errAllPinned) a waiting Fix gets aerr and
// holds neither, while a waiting Get still gets the bytes.
//
// The error path leaves no residue: a failed read publishes err, and
// because the entry is already unregistered, the next miss for the page
// starts a fresh read instead of inheriting the failure.
type inflight struct {
	done  chan struct{}
	page  *page.Page
	err   error
	aerr  error
	gets  int
	fixes int
}
