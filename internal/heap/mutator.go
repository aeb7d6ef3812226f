package heap

import (
	"fmt"
	"math"

	"repro/internal/obj"
	"repro/internal/seg"
)

// This file implements the mutator side of concurrent-mutator mode:
// per-goroutine allocation through thread-local allocation buffers
// (TLABs). A Mutator handle owns, per space, an open generation-0
// segment it bump-allocates from without any synchronization — the
// same pure-bump fast path the legacy single-mutator allocWords has.
// The slow path claims a fresh segment from the mutator's private
// reserved-segment cache (seg.Table.Reserve) under the heap's
// allocation mutex, which is also where safepoints are polled, the
// generation-0 trigger is charged, and allocation stats are merged.
//
// Ownership rules that make the fast path sound:
//
//   - A TLAB segment is linked into the generation-0 chain at claim
//     time (under allocMu), so the collector needs no per-mutator
//     discovery; but between safepoints only the owning mutator ever
//     touches the segment's words, Fill, or the cursor.
//   - Collections only run with every registered mutator suspended
//     (parked at a safepoint or idle — see safepoint.go), and a
//     suspended mutator has flushed: its cursors are reset to seg.None,
//     so the collector sees ordinary, correctly Fill'ed gen-0 segments.
//   - The remainder of a flushed TLAB segment is abandoned (internal
//     fragmentation < one segment per space per collection), exactly
//     like the legacy cursor reset in Collect.

// tlabCacheBatch is how many segments a mutator reserves from the
// table per allocMu acquisition when its cache runs dry. On bounded
// heaps the batch is clamped to the remaining headroom, so reserved
// TLAB segments never push the committed count past MaxSegments.
const tlabCacheBatch = 8

// Mutator is a registered allocation handle for one mutator goroutine.
// Obtain one with Heap.RegisterMutator; all allocation and collection
// triggering on that goroutine must go through the handle (direct Heap
// allocation panics while any Mutator is registered). A Mutator must
// not be shared between goroutines without external synchronization —
// it is exactly as thread-local as the paper's single mutator.
type Mutator struct {
	h   *Heap
	cur [seg.NumSpaces]cursor // open TLAB segment per space, gen 0

	// cache holds segment indices reserved from the table for this
	// mutator (seg.Table.Reserve): the slow path pops it without
	// growing the table, refilling in tlabCacheBatch gulps under
	// allocMu. Mutated only under allocMu.
	cache []int

	// words accumulates fast-path allocation (Stats.WordsAllocated
	// delta), merged into Heap.Stats at every slow path and flush so
	// the shared counter is never written without allocMu.
	words uint64

	// tmp pins constructor arguments across the allocation slow path.
	// Any Mutator allocation can park for another goroutine's
	// collection, which moves objects — so argument values loaded
	// before the alloc would be stale afterwards. Constructors stash
	// pointer arguments here, allocate, and reload; the collector's
	// roots phase forwards these slots for every registered mutator
	// (the world is stopped, so the owner is not touching them).
	tmp [2]obj.Value

	// Handshake state, all guarded by Heap.spMu (safepoint.go).
	parked     bool // suspended in parkLocked
	idle       bool // at a standing safepoint (Idle/Active)
	registered bool
}

// Heap returns the heap this mutator allocates from. Read-only object
// accessors (Car, VectorRef, StringValue, ...) and barriered writes
// (SetCar, VectorSet, ...) are safe to call directly on the Heap from
// any registered mutator; only allocation must go through the handle.
func (m *Mutator) Heap() *Heap { return m.h }

// alloc is the TLAB fast path: a pure bump of the open segment for the
// space, falling to allocSlow when the object does not fit (or no
// segment is open). No safepoint poll here — the slow path runs at
// least once per segment (256 pairs), which bounds how long a tight
// allocation loop can delay a handshake.
func (m *Mutator) alloc(space seg.Space, n int) (uint64, []uint64) {
	c := &m.cur[space]
	if !c.fits(n) {
		return m.allocSlow(space, n)
	}
	m.words += uint64(n)
	return c.bump(n)
}

// allocSlow refills the TLAB for one space (or takes the large-object
// path) under allocMu. It polls the safepoint flag before taking the
// lock: a mutator that parks here lets a pending collection run, then
// claims its fresh segment from the post-collection heap.
func (m *Mutator) allocSlow(space seg.Space, n int) (uint64, []uint64) {
	h := m.h
	if n <= 0 || n > maxObjectWords {
		panic(fmt.Sprintf("heap: bad allocation size %d", n))
	}
	if h.spStop.Load() {
		h.spMu.Lock()
		h.parkLocked(m)
		h.spMu.Unlock()
	}
	h.check(!h.failed.Load(), "heap unusable after failed collection")
	if n > seg.Words {
		return m.allocLarge(space, n)
	}
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	if len(m.cache) == 0 {
		m.refillCacheLocked()
	}
	idx := m.cache[len(m.cache)-1]
	m.cache = m.cache[:len(m.cache)-1]
	h.tab.InitReserved(idx, space, 0, h.stamp)
	h.chains[space][0] = append(h.chains[space][0], idx)
	h.Stats.SegmentsAllocated++
	// Pre-charge the whole segment against the generation-0 trigger.
	// The legacy path charges exact words as they are bumped; counting
	// the segment at claim time keeps the trigger entirely off the
	// lock-free fast path at the cost of firing at most one segment's
	// worth of words early per open TLAB.
	h.gen0Words += seg.Words
	if h.gen0Words >= h.trigger {
		h.needCollect.Store(true)
	}
	m.words += uint64(n)
	m.flushStatsLocked()
	c := &m.cur[space]
	c.open(h.tab, idx)
	return c.bump(n)
}

// allocLarge allocates a multi-segment run for an object wider than
// one segment, entirely under allocMu (large objects are rare; they
// never come from a TLAB).
func (m *Mutator) allocLarge(space seg.Space, n int) (uint64, []uint64) {
	h := m.h
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	k := (n + seg.Words - 1) / seg.Words
	h.claimable(k, k, "large object")
	first := h.tab.AllocRun(space, 0, h.stamp, k)
	h.Stats.SegmentsAllocated += uint64(k)
	h.fillRun(first, k, n)
	for i := 0; i < k; i++ {
		h.chains[space][0] = append(h.chains[space][0], first+i)
	}
	h.gen0Words += n
	if h.gen0Words >= h.trigger {
		h.needCollect.Store(true)
	}
	m.words += uint64(n)
	m.flushStatsLocked()
	return seg.BaseAddr(first), nil
}

// refillCacheLocked reserves a batch of segments for this mutator's
// cache. Caller holds allocMu. On bounded heaps the batch is clamped
// to the remaining headroom (claimable) — reserved segments are
// committed (seg.Table.CommittedCount) and must never push past
// MaxSegments.
func (m *Mutator) refillCacheLocked() {
	m.cache = m.h.tab.Reserve(m.cache, m.h.claimable(tlabCacheBatch, 1, "mutator TLAB refill"))
}

// reclaimReservedLocked returns every registered mutator's idle TLAB
// cache reservations to the table. OOM paths call it when the
// committed count reaches MaxSegments: reserved segments are committed
// but unused, and without reclaiming them an allocation could fail out
// of memory while some mutator sits on a batch of free segments.
//
// Caller must hold allocMu, or be the only goroutine running (the
// legacy mutator, or the collector of a stopped world). Mutator caches
// are only ever mutated under allocMu (allocSlow, refill, Unregister —
// and mid-collection their owners are parked anyway), and h.muts itself
// is written only with both spMu and allocMu held. The caller's own
// cache is drained too, which is harmless: it is empty, which is why
// the caller is refilling, or its owner is allocating a large object,
// which never comes from the cache.
func (h *Heap) reclaimReservedLocked() {
	for _, m := range h.muts {
		for _, idx := range m.cache {
			h.tab.Unreserve(idx)
		}
		m.cache = m.cache[:0]
	}
}

// flushStatsLocked merges the mutator's fast-path allocation counter
// into the shared Stats. Caller holds allocMu (or the world is
// stopped).
func (m *Mutator) flushStatsLocked() {
	m.h.Stats.WordsAllocated += m.words
	m.words = 0
}

// flush abandons the open TLAB segments (their Fill is already exact)
// and merges stats, leaving the mutator with no claim on generation 0.
// Called under spMu when the mutator suspends — parking, going idle,
// unregistering, or coordinating a collection itself.
func (m *Mutator) flush() {
	m.h.allocMu.Lock()
	for sp := range m.cur {
		m.cur[sp].close()
	}
	m.flushStatsLocked()
	m.h.allocMu.Unlock()
}

// --- Constructors ----------------------------------------------------
//
// The TLAB-path counterparts of the Heap constructors: identical
// layouts (the init helpers in objects.go are shared), different
// allocation route.

// Cons allocates an ordinary pair in generation 0.
func (m *Mutator) Cons(car, cdr obj.Value) obj.Value {
	m.tmp[0], m.tmp[1] = car, cdr
	addr, w := m.alloc(seg.SpacePair, 2)
	w[0], w[1] = uint64(m.tmp[0]), uint64(m.tmp[1])
	m.tmp[0], m.tmp[1] = obj.False, obj.False
	return obj.PairAt(addr)
}

// WeakCons allocates a weak pair (see Heap.WeakCons).
func (m *Mutator) WeakCons(car, cdr obj.Value) obj.Value {
	m.tmp[0], m.tmp[1] = car, cdr
	addr, w := m.alloc(seg.SpaceWeak, 2)
	w[0], w[1] = uint64(m.tmp[0]), uint64(m.tmp[1])
	m.tmp[0], m.tmp[1] = obj.False, obj.False
	return obj.PairAt(addr)
}

// allocObj is the mutator-path counterpart of Heap.allocObj.
func (m *Mutator) allocObj(kind obj.Kind, length, payloadWords int) (uint64, []uint64) {
	addr, w := m.alloc(objSpace(kind), 1+payloadWords)
	return addr, m.h.putHeader(addr, w, kind, length)
}

// MakeVector allocates a vector of n elements initialized to fill.
func (m *Mutator) MakeVector(n int, fill obj.Value) obj.Value {
	if n < 0 {
		m.h.negLength("make-vector", n)
	}
	m.tmp[0] = fill
	addr, p := m.allocObj(obj.KVector, n, n)
	m.h.fillWords(addr+1, p, n, m.tmp[0])
	m.tmp[0] = obj.False
	return obj.ObjAt(addr)
}

// MakeString allocates an immutable string holding s.
func (m *Mutator) MakeString(s string) obj.Value {
	b := []byte(s)
	addr, p := m.allocObj(obj.KString, len(b), (len(b)+7)/8)
	m.h.fillBytes(addr+1, p, b)
	return obj.ObjAt(addr)
}

// MakeBytevector allocates a zero-filled bytevector of n bytes.
func (m *Mutator) MakeBytevector(n int) obj.Value {
	if n < 0 {
		m.h.negLength("make-bytevector", n)
	}
	addr, _ := m.allocObj(obj.KBytevector, n, (n+7)/8) // fresh words are zero
	return obj.ObjAt(addr)
}

// MakeFlonum allocates a boxed float64 in the data space.
func (m *Mutator) MakeFlonum(f float64) obj.Value {
	addr, p := m.allocObj(obj.KFlonum, 1, 1)
	p[0] = math.Float64bits(f)
	return obj.ObjAt(addr)
}

// MakeBox allocates a one-cell box holding v.
func (m *Mutator) MakeBox(v obj.Value) obj.Value {
	m.tmp[0] = v
	addr, p := m.allocObj(obj.KBox, 1, 1)
	p[0] = uint64(m.tmp[0])
	m.tmp[0] = obj.False
	return obj.ObjAt(addr)
}

// --- Delegations -----------------------------------------------------
//
// Accessors and barriered writes are safe on the Heap directly (the
// write barrier is shard-locked, reads are plain loads); these exist
// so mutator code reads uniformly.

// Car returns the car of a pair.
func (m *Mutator) Car(p obj.Value) obj.Value { return m.h.Car(p) }

// Cdr returns the cdr of a pair.
func (m *Mutator) Cdr(p obj.Value) obj.Value { return m.h.Cdr(p) }

// SetCar stores v in the car of a pair, with the write barrier.
func (m *Mutator) SetCar(p, v obj.Value) { m.h.SetCar(p, v) }

// SetCdr stores v in the cdr of a pair, with the write barrier.
func (m *Mutator) SetCdr(p, v obj.Value) { m.h.SetCdr(p, v) }

// VectorRef returns element i of a vector.
func (m *Mutator) VectorRef(v obj.Value, i int) obj.Value { return m.h.VectorRef(v, i) }

// VectorSet stores x as element i of a vector, with the write barrier.
func (m *Mutator) VectorSet(v obj.Value, i int, x obj.Value) { m.h.VectorSet(v, i, x) }
