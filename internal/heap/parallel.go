package heap

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/seg"
)

// This file holds what a collection needs when more than one copier is
// active (Config.Workers > 1, or Workers == 0 with the adaptive policy
// choosing more than one): the choice of copier count, the fan-out
// that runs a phase on every active copier, and the shared halves of
// the copying core's three mode points (see copier in collect.go).
// The forwarding phases — roots, old-space scan, the kleene-sweep —
// and the guardian phase's accessibility checks fan out; guardian
// salvage and the weak phase stay with the lead copier, preserving the
// paper's ordering (guardians before the weak second pass). The
// argument for why the result is isomorphic to the one-copier
// collector's is laid out in docs/ALGORITHM.md; the lockstep oracle in
// oracle_test.go checks it after every collection.
//
// The concurrency protocol in brief:
//
//   - Each copier owns a private to-space allocation buffer: one open
//     segment per space, bump-allocated without locks. Fresh segments
//     come from the copier's own reserved-segment cache (segment
//     affinity), refilled from the table in batches under the heap's
//     allocation mutex (Heap.allocMu, shared with the mutator TLAB
//     refill path); large-object runs always go through the mutex.
//     Segment structs are stable pointers (package seg's chunked
//     table), so one copier growing the table never invalidates
//     another's reads.
//   - Forwarding words are installed with compare-and-swap
//     (copier.install), so racing copiers copy an object exactly once.
//   - Copied objects that need sweeping go onto the copying copier's
//     lock-free Chase–Lev deque (deque.go); the owner pushes and pops
//     the bottom, idle peers steal the top with a CAS. Termination
//     uses a global count of pushed-but-unswept items (Heap.pending):
//     it is incremented before an item becomes visible and decremented
//     only after the item and all pushes it performed are done, so
//     pending == 0 proves the sweep has reached its fixpoint.

// peer is the part of a copier that only a shared collection uses.
type peer struct {
	// dq is this copier's lock-free sweep deque: owner pushes/pops the
	// bottom, thieves CAS the top (deque.go). sweeping is set while an
	// item taken from the deques is being swept; the next take retires
	// it from Heap.pending.
	dq       deque
	sweeping bool

	// segCache holds segment indices reserved from the table for this
	// copier (seg.Table.Reserve): taking a fresh to-space segment pops
	// the cache without locking, and the cache survives across
	// collections — the segment-affinity design that keeps
	// steady-state collections off allocMu. Bounded heaps get the same
	// fast path: reserved segments are committed against MaxSegments
	// at Reserve time (seg.Table.CommittedCount), so refills clamp to
	// the remaining headroom instead of gating the cache off — and
	// because an idle reservation in one copier's cache must never
	// starve another into a spurious OOM, the cache is *stealable*: a
	// drainer holding allocMu pops it with the same CAS protocol the
	// owner uses (see segCache doc). newSegs buffers the segments this
	// copier took from its cache during the current collection, linked
	// into the target generation's chains by mergeCopiers (nothing
	// reads those chains during the copying phases).
	segCache   segCache
	segScratch []int // Reserve() staging, cap segCacheBatch (0-alloc refills)
	newSegs    [seg.NumSpaces][]int

	// sweepBusy/sweepIdle split the main sweep drains' wall time: busy
	// is spent sweeping items (and scanning for work), idle is spent
	// yielding in the termination spin (spinNS, per drain). Idle
	// dominates exactly when load is imbalanced, which is the signal
	// the adaptive worker policy and the worker_busy_ns/worker_idle_ns
	// trace fields exist to expose. guardBusy/guardIdle are the same
	// split for the guardian phase's classification fan-outs and
	// salvage re-sweeps (Heap.inGuardian selects the pair), surfaced
	// as CollectionReport.WorkerGuardianBusy/Idle and the
	// guardian_busy_ns/guardian_idle_ns trace fields.
	spinNS               int64
	sweepBusy, sweepIdle int64
	guardBusy, guardIdle int64

	body func() // persistent goroutine body for run
}

// gcPhase selects which phase body run executes on every active
// copier; set before the fan-out (the goroutine-start edge orders the
// write against the peers' reads).
type gcPhase uint8

const (
	phaseRoots gcPhase = iota
	phaseDirty
	phaseOld
	phaseSweep
	phaseGuardClassify
)

// MaxWorkers bounds Config.Workers. Sixteen covers every machine this
// collector is likely to meet while keeping per-heap worker state
// small.
const MaxWorkers = 16

// segCacheBatch is how many segments a copier reserves from the table
// per allocMu acquisition when its affinity cache runs dry.
const segCacheBatch = 8

// segCache is a copier's stack of reserved segment indices. The owning
// copier pops it lock-free during the copying phases; anyone holding
// allocMu may concurrently takeAll it, and the CAS on n arbitrates who
// gets each slot. That stealability is what keeps bounded-heap OOM
// accounting exact: a copier (or mutator) that finds no headroom under
// allocMu reclaims the idle reservations parked in peer caches instead
// of panicking while memory is still free.
//
// n is the only shared word: slots[0..n-1] are valid. Slots are
// written only by the owner's refill, under allocMu with n == 0 —
// nothing can be reading slots a refill overwrites, because readers
// only touch indices below n and drains serialize with refills on
// allocMu.
type segCache struct {
	n     atomic.Int32
	slots [segCacheBatch]int
}

// pop claims the top entry, or reports the cache empty. Owner-only.
func (c *segCache) pop() (int, bool) {
	for {
		n := c.n.Load()
		if n == 0 {
			return 0, false
		}
		if c.n.CompareAndSwap(n, n-1) {
			return c.slots[n-1], true
		}
	}
}

// takeAll claims every entry at once and returns the claimed prefix of
// slots (aliasing the cache's array — no allocation). The caller must
// hold allocMu, or otherwise know the owner is quiescent, so that no
// refill overwrites the slots while the caller processes them.
func (c *segCache) takeAll() []int {
	for {
		n := c.n.Load()
		if n == 0 {
			return nil
		}
		if c.n.CompareAndSwap(n, 0) {
			return c.slots[:n]
		}
	}
}

// autoSegsPerWorker calibrates the adaptive worker policy: one worker
// per this many live from-space segments, so a collection needs at
// least 2*autoSegsPerWorker segments (~96 KB of from-space) before it
// fans out at all. Below that, goroutine start/join and CAS overhead
// outweigh the copying work — a 10-segment nursery collection runs on
// the lead copier alone.
const autoSegsPerWorker = 12

// autoWorkerCount is the pure adaptive policy: the worker count for a
// collection of liveSegs from-space segments on procs schedulable
// CPUs. Exported to tests via export_test.go.
func autoWorkerCount(liveSegs, procs int) int {
	w := liveSegs / autoSegsPerWorker
	if w > procs {
		w = procs
	}
	if w > MaxWorkers {
		w = MaxWorkers
	}
	if w < 2 {
		return 1
	}
	return w
}

// chooseWorkers picks the copier count for a collection of generations
// 0..g: the configured count when one is set, otherwise the adaptive
// policy applied to GOMAXPROCS and the number of live segments in the
// collected generations (counted from the chains before from-space is
// detached). The map-based remembered-set oracle is sequential-only,
// so auto never fans out over it.
func (h *Heap) chooseWorkers(g int) int {
	if h.cfg.Workers != 0 {
		return h.cfg.Workers
	}
	if h.dirtyMap != nil {
		return 1
	}
	segs := 0
	for sp := 0; sp < int(seg.NumSpaces); sp++ {
		for gen := 0; gen <= g; gen++ {
			segs += len(h.chains[sp][gen])
		}
	}
	return autoWorkerCount(segs, runtime.GOMAXPROCS(0))
}

// activate selects the first n copiers for the collection that is
// beginning and resets their per-collection state. Copiers are created
// once and reused; changing the count between collections just changes
// how many take part. This is where the collection's one mode fact is
// established: the copiers are shared when there is more than one.
func (h *Heap) activate(n int) {
	for len(h.copiers) < n {
		h.copiers = append(h.copiers, newCopier(h, len(h.copiers)))
		h.panics = append(h.panics, nil)
	}
	h.lead, h.active = h.copiers[0], h.copiers[:n]
	shared := n > 1
	for _, c := range h.active {
		c.shared = shared
		for sp := range c.cur {
			c.cur[sp].close()
		}
		c.newWeak, c.pendWeak = c.newWeak[:0], c.pendWeak[:0]
		c.sweepBusy, c.sweepIdle, c.guardBusy, c.guardIdle = 0, 0, 0, 0
	}
	rep := &h.report
	rep.WorkersChosen = n
	rows := 0 // per-worker report rows: none for a lone copier
	idle := h.copiers[n:]
	if shared {
		// Racing copiers read and write heap words lock-free (CAS
		// installs through WordPtr), and the lazy copy-on-write
		// privatize is unsynchronized single-threaded machinery: eagerly
		// privatize anything still shared with a heap template before
		// the fan-out.
		h.tab.PrivatizeAll()
		for _, c := range h.active {
			c.dq.init()
		}
		rows = n
	} else {
		// A lone copier carries on in the target generation's open
		// segments (none when the oldest generation collects into
		// itself: collectBegin reset those cursors, so copies go to
		// fresh segments). Copiers in company start fresh ones instead:
		// an open segment of an older generation is also a segment a
		// peer may be scanning. And it claims segments directly, so it
		// holds no reservations either.
		for sp := range h.cur {
			h.cur[sp][h.gcTarget].handTo(&h.lead.cur[sp])
		}
		idle = h.copiers
	}
	rep.WorkerSweepBusy = resizeDurations(rep.WorkerSweepBusy, rows)
	rep.WorkerSweepIdle = resizeDurations(rep.WorkerSweepIdle, rows)
	rep.WorkerGuardianBusy = resizeDurations(rep.WorkerGuardianBusy, rows)
	rep.WorkerGuardianIdle = resizeDurations(rep.WorkerGuardianIdle, rows)
	// Reservations never outlive the company that made them: copiers
	// left out return their reserved segments to the table, so after
	// any one-copier collection the table has no reserved segments at
	// all.
	for _, c := range idle {
		c.unreserve()
	}
}

// unreserve returns the copier's cached segment reservations to the
// table. The caller holds allocMu or knows the copier is quiescent
// (segCache.takeAll).
func (c *copier) unreserve() {
	for _, idx := range c.segCache.takeAll() {
		c.h.tab.Unreserve(idx)
	}
}

func resizeDurations(s []time.Duration, n int) []time.Duration {
	s = s[:0]
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// reclaimReservedLocked returns every idle reservation in the heap —
// each copier's affinity cache and each registered mutator's TLAB
// cache — to the table. OOM paths call this when the committed count
// reaches MaxSegments: reservations held in a peer's cache are
// committed but unused, and without reclaiming them a copier could
// panic out-of-memory while another sits on a batch of free segments
// it will never touch again this collection.
//
// Caller must hold allocMu, or be the only goroutine running (the
// legacy mutator, or a stopped world's lone copier). That makes every
// drain safe: mutator caches are only ever mutated under allocMu
// (allocSlow, refill, Unregister — and mid-collection their owners are
// parked anyway), copier caches are stolen through the segCache CAS
// protocol, and h.muts itself is written only with both spMu and
// allocMu held. The caller's own cache is drained too, which is
// harmless: it is either already empty (that is why it is refilling)
// or about to be deliberately given up (allocRun).
func (h *Heap) reclaimReservedLocked() {
	for _, c := range h.copiers {
		c.unreserve()
	}
	for _, m := range h.muts {
		for _, idx := range m.cache {
			h.tab.Unreserve(idx)
		}
		m.cache = m.cache[:0]
	}
}

// run executes the selected phase on every active copier — the lead
// inline on the calling goroutine, its peers on goroutines of their
// own — and waits for all of them. A panic on any copier sets the
// abort flag (so sweep spinners exit instead of waiting for a pending
// count that will never reach zero); a peer's panic is re-raised here
// after the join, the lead's simply keeps unwinding once the peers
// have stopped. The fan-out reuses the peers' persistent goroutine
// bodies and the heap's WaitGroup and panic slots, so a steady-state
// phase allocates nothing.
func (h *Heap) run(ph gcPhase) {
	h.phase = ph
	peers := h.active[1:]
	for _, c := range peers {
		h.wg.Add(1)
		go c.body()
	}
	done := false
	defer func() {
		if !done {
			h.abort.Store(true)
		}
		h.wg.Wait()
		for _, c := range peers {
			if r := h.panics[c.id]; r != nil && done {
				h.panics[c.id] = nil
				panic(r)
			}
		}
	}()
	h.lead.runPhase()
	done = true
}

// runPeer is the persistent goroutine body spawned by run: it runs the
// selected phase, recovers a panic into the copier's slot, and signals
// the join.
func (c *copier) runPeer() {
	h := c.h
	defer h.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			h.panics[c.id] = r
			h.abort.Store(true)
		}
	}()
	c.runPhase()
}

func (c *copier) runPhase() {
	switch c.h.phase {
	case phaseRoots:
		c.rootsPhase()
	case phaseDirty:
		c.dirtyPhase()
	case phaseOld:
		c.oldScanPhase()
	case phaseSweep:
		c.sweepPhase()
	case phaseGuardClassify:
		c.guardClassifyPhase()
	}
}

// mergeCopiers folds the copiers' private state back into the heap
// once all copying of a collection is done: the lead's to-space
// cursors (handed back so the next collection — or, when generation 0
// is the target, the legacy allocator — carries on in the open
// segments; its peers' are closed: they may sit the next one out),
// stats deltas, the segments each copier took from its
// cache (appended to the target generation's chains), and the
// per-worker sweep and guardian timings surfaced on the
// CollectionReport. Over-grown sweep deques shrink back here so a heap
// whose peak collection swept a huge structure does not retain the
// peak-size rings for its lifetime.
func (h *Heap) mergeCopiers() {
	st := &h.Stats
	rep := &h.report
	for _, c := range h.active {
		for sp := range c.cur {
			if c == h.lead {
				c.cur[sp].handTo(&h.cur[sp][h.gcTarget])
			} else {
				c.cur[sp].close()
			}
		}
		st.WordsAllocated += c.stats.wordsAllocated
		st.SegmentsAllocated += c.stats.segmentsAllocated
		st.WordsCopied += c.stats.wordsCopied
		st.PairsCopied += c.stats.pairsCopied
		st.ObjectsCopied += c.stats.objectsCopied
		st.CellsSwept += c.stats.cellsSwept
		st.SweepPasses += c.stats.sweepPasses
		st.DirtyCellsScanned += c.stats.dirtyCellsScanned
		c.stats = copyStats{}
		for sp := range c.newSegs {
			h.chains[sp][h.gcTarget] = append(h.chains[sp][h.gcTarget], c.newSegs[sp]...)
			c.newSegs[sp] = c.newSegs[sp][:0]
		}
		c.dq.shrink()
	}
	for i := range rep.WorkerSweepBusy {
		c := h.active[i]
		rep.WorkerSweepBusy[i] = time.Duration(c.sweepBusy)
		rep.WorkerSweepIdle[i] = time.Duration(c.sweepIdle)
		rep.WorkerGuardianBusy[i] = time.Duration(c.guardBusy)
		rep.WorkerGuardianIdle[i] = time.Duration(c.guardIdle)
	}
}

// accrue books one drain's (or classification's) wall time, of which
// spun was spent yielding, to the guardian columns while the guardian
// phase is running and to the sweep columns otherwise.
func (c *copier) accrue(wall, spun int64) {
	if c.h.inGuardian {
		c.guardBusy += wall - spun
		c.guardIdle += spun
	} else {
		c.sweepBusy += wall - spun
		c.sweepIdle += spun
	}
}

// takeReserved is newSeg for copiers in company: it pops the copier's
// reserved-segment cache, refilled from the table in
// segCacheBatch-sized gulps under allocMu — the segment-affinity fast
// path: a steady-state collection whose survivors fit the cached
// segments touches the mutex once per batch instead of once per
// segment, and activating a cached segment (seg.InitReserved) mutates
// only copier-owned state.
func (c *copier) takeReserved(space seg.Space) int {
	h := c.h
	// Loop: a peer hitting its OOM path can steal a fresh refill out
	// from under us (takeAll between our refill and our pop).
	idx, ok := c.segCache.pop()
	for !ok {
		c.refillSegCache()
		idx, ok = c.segCache.pop()
	}
	h.tab.InitReserved(idx, space, h.gcTarget, h.stamp)
	c.newSegs[space] = append(c.newSegs[space], idx)
	return idx
}

// refillSegCache reserves a batch of segments for this copier, clamped
// on bounded heaps to the remaining headroom (claimable) — OOM
// accounting stays exact with the affinity cache enabled.
func (c *copier) refillSegCache() {
	h := c.h
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	k := h.claimable(segCacheBatch, 1, "to-space segment")
	// Stage through segScratch: the cache's own slots may not be
	// appended to (n is the published length), and reusing one
	// persistent slice keeps steady-state refills allocation-free.
	c.segScratch = h.tab.Reserve(c.segScratch[:0], k)
	n := copy(c.segCache.slots[:], c.segScratch)
	c.segCache.n.Store(int32(n))
}

// allocRun allocates a large-object run of contiguous segments for a
// copy. The run is NOT linked into the segment chains yet: the copy is
// speculative until its install wins, so publishRun/freeRun finish or
// undo the allocation afterwards.
func (c *copier) allocRun(space seg.Space, total int) (addr uint64, first, k int) {
	h := c.h
	k = (total + seg.Words - 1) / seg.Words
	func() {
		h.allocMu.Lock()
		defer h.allocMu.Unlock() // claimable panics on out of memory
		h.claimable(k, k, "large object")
		first = h.tab.AllocRun(space, h.gcTarget, h.stamp, k)
	}()
	h.fillRun(first, k, total)
	c.stats.wordsAllocated += uint64(total)
	c.stats.segmentsAllocated += uint64(k)
	return seg.BaseAddr(first), first, k
}

// publishRun links a large-object run into the target generation's
// chains after its install won.
func (c *copier) publishRun(space seg.Space, first, k int) {
	h := c.h
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	for i := 0; i < k; i++ {
		h.chains[space][h.gcTarget] = append(h.chains[space][h.gcTarget], first+i)
	}
}

// freeRun retires a speculative large-object run after its install
// lost: the segments were never published, so they go straight back to
// the pool (FreeRun keeps the run assembled for the next same-length
// allocation — typically the very object whose install won).
func (c *copier) freeRun(first, k, total int) {
	h := c.h
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	h.tab.FreeRun(first)
	c.stats.wordsAllocated -= uint64(total)
	c.stats.segmentsAllocated -= uint64(k)
}

// pushShared makes a sweep item visible to the work-stealing drain.
// The pending count is incremented before the item is published so the
// count can never understate the outstanding work (a spinner observing
// pending == 0 proves the fixpoint).
func (c *copier) pushShared(it sweepItem) {
	c.h.pending.Add(1)
	c.dq.push(packSweepItem(it))
}

// steal takes the oldest item from some other copier's deque. A failed
// CAS on a victim just moves on to the next; the pending counter, not
// the deques, decides when the drain is over.
func (c *copier) steal() (uint64, bool) {
	act := c.h.active
	for k := 1; k < len(act); k++ {
		if x, ok := act[(c.id+k)%len(act)].dq.steal(); ok {
			return x, true
		}
	}
	return 0, false
}

// takeShared is take for copiers in company: pop own work (LIFO keeps
// the working set hot and leaves the deque's top for thieves), steal
// when empty, spin (yielding) while peers may still push, stop when
// nothing is pending anywhere. The item handed out last time — and
// every push its sweep performed — is retired from pending first. A
// drain with a deadline adds a deadline exit: the busy path checks it
// every 32 items, before popping, so a copier never leaves holding a
// popped-but-unswept item — and the termination spin checks it
// unconditionally, because once a peer has left at the deadline with
// items still parked in its deque, pending can stay positive forever
// and a spinner that only watched pending would never leave.
func (c *copier) takeShared(n int) (sweepItem, bool) {
	h := c.h
	if c.sweeping {
		c.sweeping = false
		h.pending.Add(-1)
	}
	for !h.abort.Load() {
		if n != 0 && n&31 == 0 && h.pastDeadline() {
			break
		}
		x, ok := c.dq.pop()
		if !ok {
			x, ok = c.steal()
		}
		if ok {
			c.sweeping = true
			return unpackSweepItem(x), true
		}
		if h.pending.Load() == 0 || h.pastDeadline() {
			break
		}
		ti := time.Now()
		runtime.Gosched()
		c.spinNS += time.Since(ti).Nanoseconds()
	}
	return sweepItem{}, false
}

// guardClassify computes the accessibility verdicts for the protected
// entries of a then b over the active copiers: verdict i is
// isForwarded of entry i's Obj (checkObj, the initial pend-hold /
// pend-final partition) or Tconc (the salvage rounds). The entries
// partition across copiers by index striding; every verdict slot is
// written by exactly one copier, and the phase performs no heap
// mutation at all — copiers only read forwarding words and segment
// metadata, so the fan-out is race-free by construction. The verdict
// slice is heap-owned scratch, valid until the next classification.
func (h *Heap) guardClassify(a, b []ProtEntry, checkObj bool) []bool {
	n := len(a) + len(b)
	if cap(h.guardVerdicts) < n {
		h.guardVerdicts = make([]bool, n)
	}
	h.guardVerdicts = h.guardVerdicts[:n]
	h.guardA, h.guardB, h.guardObj = a, b, checkObj
	h.run(phaseGuardClassify)
	h.guardA, h.guardB = nil, nil
	return h.guardVerdicts
}

// guardClassifyPhase is one copier's share of a guardian
// classification: a strided walk over the combined entry lists,
// recording each entry's accessibility verdict in its private slot.
// Time spent here counts as guardian-phase busy time.
func (c *copier) guardClassifyPhase() {
	t0 := time.Now()
	h := c.h
	nA := len(h.guardA)
	total := nA + len(h.guardB)
	for i := c.id; i < total; i += len(h.active) {
		var e *ProtEntry
		if i < nA {
			e = &h.guardA[i]
		} else {
			e = &h.guardB[i-nA]
		}
		v := e.Tconc
		if h.guardObj {
			v = e.Obj
		}
		h.guardVerdicts[i] = h.isForwarded(v)
	}
	c.accrue(time.Since(t0).Nanoseconds(), 0)
}
