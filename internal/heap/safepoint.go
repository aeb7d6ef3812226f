package heap

import (
	"time"

	"repro/internal/seg"
)

// This file implements the stop-the-world safepoint handshake of
// concurrent-mutator mode. The paper's collector stops "the" mutator
// by virtue of being called by it; with N registered mutators a
// collection must first bring every other mutator to a well-defined
// stop, because the collector moves objects and rewrites cells with no
// synchronization of its own.
//
// Protocol. A mutator wanting to collect (or any goroutine calling
// Heap.Collect/CollectAuto while mutators are registered) elects
// itself coordinator by setting `collecting` under spMu, then raises
// stopReq + the lock-free spStop flag. Every other registered mutator
// reaches a safepoint — the allocation slow path, an explicit
// Mutator.Safepoint poll on a loop back-edge, or the standing
// safepoint of Idle — flushes its TLABs, and parks. Once
// parked+idle covers every other mutator the coordinator flushes its
// own TLABs and runs the unmodified stop-the-world collection body
// (collect, exactly as in legacy mode). Resume is two-phase: stopReq
// clears and parked mutators drain out, then `collecting` clears,
// allowing the next election — the drain guarantees a mutator parked
// for collection k can never be trapped by collection k+1's stopReq.
// The resume also runs when the body panics (resumeWorld is deferred):
// the heap is then marked failed, and the released mutators — like
// every later Collect — fail fast instead of hanging on a handshake
// nobody will ever lower.
//
// Lock order: spMu before allocMu, never the reverse. parkLocked and
// the coordinator both flush TLABs (allocMu) while holding spMu; the
// allocation slow path polls spStop *before* taking allocMu, so a
// mutator never sleeps on the handshake while holding the allocation
// lock.
//
// The handshake also carries the happens-before edges concurrent
// mutation needs: every mutator's pre-collection writes (heap cells,
// shard-locked remembered-set inserts, chain appends) are ordered
// before the collector's reads by the park (spMu release/acquire),
// and the collector's writes are ordered before resumed mutators'
// reads the same way. That is what lets the collection phases — and
// the scan-side remembered-set compaction — run entirely lock-free,
// unchanged from legacy mode.

// RegisterMutator creates and registers a Mutator handle, switching
// the heap into concurrent-mutator mode (see Heap doc). The handle
// belongs to one goroutine. Registration waits out any collection in
// progress. Every registered mutator must reach safepoints promptly
// (allocate, poll Safepoint on loop back-edges, or sit in Idle) or
// collections will stall; call Unregister when the goroutine is done.
func (h *Heap) RegisterMutator() *Mutator {
	m := &Mutator{h: h}
	for sp := range m.cur {
		m.cur[sp].close()
	}
	h.spMu.Lock()
	for h.collecting {
		h.spCond.Wait()
	}
	m.registered = true
	// muts is written with both spMu and allocMu held so that either
	// lock protects readers (reclaimReservedLocked walks it under
	// allocMu alone).
	h.allocMu.Lock()
	// Concurrent mutators run the write barrier on many goroutines at
	// once; the lazy copy-on-write privatize is unsynchronized
	// single-threaded machinery, so a template clone entering mutator
	// mode privatizes everything still shared first.
	h.tab.PrivatizeAll()
	// Close the legacy allocator's open generation-0 cursors: the
	// direct-allocation panic lives on the legacy slow path, so any
	// stray Heap allocation after this registration must miss its
	// bump segment and fall through to the check immediately.
	for sp := 0; sp < int(seg.NumSpaces); sp++ {
		h.cur[sp][0].close()
	}
	h.muts = append(h.muts, m)
	h.allocMu.Unlock()
	h.mutCount.Store(int32(len(h.muts)))
	h.spMu.Unlock()
	return m
}

// Unregister removes the mutator from the heap, flushing its TLABs
// and returning its reserved segments to the table. The heap leaves
// concurrent-mutator mode when the last mutator unregisters. An idle
// mutator may be unregistered (the handle's owner still makes the
// call); a parked one cannot be, since its goroutine is inside the
// handshake.
func (m *Mutator) Unregister() {
	h := m.h
	h.spMu.Lock()
	h.check(m.registered, "Unregister: mutator not registered")
	h.check(!m.parked, "Unregister: mutator is parked")
	if m.idle {
		// Idle mutators do not block the handshake, so a collection
		// may be running right now; wait it out before touching the
		// segment table below.
		for h.stopReq {
			h.spCond.Wait()
		}
		m.idle = false
		h.spIdle--
	}
	// Still counted in muts here, and not parked/idle: no new handshake
	// can complete until this unregister finishes, so the table and
	// Stats mutations below cannot race with a collector.
	m.flush()
	h.allocMu.Lock()
	for _, idx := range m.cache {
		h.tab.Unreserve(idx)
	}
	m.cache = m.cache[:0]
	h.allocMu.Unlock()
	m.registered = false
	h.allocMu.Lock() // muts writes hold both locks; see RegisterMutator
	for i, q := range h.muts {
		if q == m {
			h.muts = append(h.muts[:i], h.muts[i+1:]...)
			break
		}
	}
	h.allocMu.Unlock()
	h.mutCount.Store(int32(len(h.muts)))
	h.spCond.Broadcast() // a waiting coordinator recounts othersOf
	h.spMu.Unlock()
}

// Safepoint polls for a pending stop-the-world handshake, parking
// (TLABs flushed, goroutine suspended) until the collection finishes
// when one is in progress. It reports whether it parked. Mutator loops
// that can run long without allocating must call this on back-edges;
// allocation reaches the equivalent poll at least once per segment.
func (m *Mutator) Safepoint() bool {
	h := m.h
	if !h.spStop.Load() {
		return false
	}
	h.spMu.Lock()
	h.parkLocked(m)
	h.spMu.Unlock()
	return true
}

// Checkpoint is the mutator-mode collect request check: it parks for a
// pending handshake, and otherwise runs an automatic collection if the
// generation-0 trigger has fired. The legacy collect-request handler
// (SetCollectRequestHandler) is not consulted — it is a single-mutator
// facility.
func (m *Mutator) Checkpoint() {
	h := m.h
	if h.spStop.Load() {
		m.Safepoint()
		return
	}
	if h.needCollect.Load() {
		m.CollectAuto()
	}
}

// Collect runs a collection of generations 0..g from this mutator,
// coordinating the safepoint handshake. See Heap.Collect for the
// collection semantics and the returned report.
func (m *Mutator) Collect(g int) *CollectionReport { return m.h.collectAs(m, g, false) }

// CollectAuto runs an automatic collection (radix policy) from this
// mutator. Concurrent automatic requests coalesce: a mutator that
// loses the election to another collection returns that collection's
// report instead of running a second one.
func (m *Mutator) CollectAuto() *CollectionReport { return m.h.collectAs(m, 0, true) }

// Idle moves the mutator to a standing safepoint: TLABs are flushed
// and collections proceed without this mutator's participation until
// Active is called. Use it around anything that blocks outside the
// heap (channel waits, syscalls, long pure-Go computation) — and in
// tests that drive several mutator handles from one goroutine, where
// parking them in lockstep is impossible.
func (m *Mutator) Idle() {
	h := m.h
	h.spMu.Lock()
	h.check(m.registered, "Idle: mutator not registered")
	h.check(!m.idle, "Idle: mutator already idle")
	m.flush()
	m.idle = true
	h.spIdle++
	h.spCond.Broadcast()
	h.spMu.Unlock()
}

// Active returns the mutator from the idle state, waiting out any
// handshake in progress first.
func (m *Mutator) Active() {
	h := m.h
	h.spMu.Lock()
	h.check(m.registered && m.idle, "Active: mutator not idle")
	for h.stopReq {
		h.spCond.Wait()
	}
	m.idle = false
	h.spIdle--
	h.spMu.Unlock()
}

// parkLocked suspends the mutator for the duration of a pending
// handshake. Caller holds spMu. No-op when no stop is requested, so
// callers may invoke it opportunistically after taking the lock.
func (h *Heap) parkLocked(m *Mutator) {
	if !h.stopReq {
		return
	}
	m.flush()
	m.parked = true
	h.spParked++
	h.spCond.Broadcast() // the coordinator counts parked+idle
	for h.stopReq {
		h.spCond.Wait()
	}
	m.parked = false
	h.spParked--
	h.spCond.Broadcast() // the resume drain counts parked back to 0
}

// othersOf returns how many registered mutators the coordinator must
// wait for: all of them, minus the coordinator itself when it is one.
// Caller holds spMu.
func (h *Heap) othersOf(self *Mutator) int {
	n := len(h.muts)
	if self != nil && self.registered {
		n--
	}
	return n
}

// collectAs is the concurrent-mutator entry to a collection: self is
// the coordinating mutator (nil when a non-mutator goroutine called
// Heap.Collect/CollectAuto), auto selects the radix policy — the
// generation is chosen under the stopped world, so racing automatic
// requests never skew the counter. A registered mutator must collect
// through its handle; calling Heap.Collect from a mutator goroutine
// deadlocks (the coordinator would wait for its own park).
func (h *Heap) collectAs(self *Mutator, g int, auto bool) *CollectionReport {
	// Re-entrance guard: a collection's stop-the-world body runs with
	// every mutator suspended, so any caller observing inCollect is on
	// a collector-machinery goroutine (a root provider, post-collect
	// hook, or trace callback re-entering Collect) — waiting for the
	// election would deadlock on our own collection.
	h.check(!h.inCollect.Load(), "Collect called during a collection")
	h.check(self == nil || (self.registered && !self.idle && !self.parked),
		"collect: coordinating mutator must be registered and active")
	h.spMu.Lock()
	// Election: wait until no other collection round is active. Losing
	// an election to a running round means parking like any other
	// mutator (the winner is waiting for us); an automatic request that
	// wakes to find a round's stop-the-world body complete coalesces
	// with it — the paper's trigger semantics only ask that *a*
	// collection happen after the request.
	for h.collecting {
		if auto && !h.stopReq {
			// The round's report is final once stopReq clears (only the
			// resume drain remains).
			h.spMu.Unlock()
			return h.LastReport()
		}
		if h.stopReq && self != nil {
			h.parkLocked(self)
		} else {
			h.spCond.Wait()
		}
	}
	if h.failed.Load() {
		h.spMu.Unlock()
		panic("heap: heap unusable after failed collection")
	}
	h.collecting = true
	h.stopReq = true
	h.spStop.Store(true)
	h.spWaitNS = 0
	if h.spParked+h.spIdle < h.othersOf(self) {
		waitStart := time.Now()
		for h.spParked+h.spIdle < h.othersOf(self) {
			h.spCond.Wait() // unregistrations re-count othersOf per wakeup
		}
		h.spWaitNS = time.Since(waitStart).Nanoseconds()
	}
	h.spSuspended = h.spParked + h.spIdle
	if self != nil {
		self.flush()
	}
	if auto {
		g = h.autoGen()
	}
	h.spMu.Unlock()

	// The world is stopped: every registered mutator is parked or idle
	// with flushed TLABs, and new registrations wait on `collecting`.
	defer h.resumeWorld()
	return h.collect(g)
}

// resumeWorld is the two-phase resume that ends a collection round:
// release the parked mutators and wait for all of them to leave
// parkLocked before allowing the next election, so none can be trapped
// by a back-to-back collection's stopReq.
func (h *Heap) resumeWorld() {
	h.spMu.Lock()
	h.stopReq = false
	h.spStop.Store(false)
	h.spCond.Broadcast()
	for h.spParked > 0 {
		h.spCond.Wait()
	}
	h.collecting = false
	h.spCond.Broadcast()
	h.spMu.Unlock()
}
