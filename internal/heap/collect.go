package heap

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/obj"
	"repro/internal/seg"
)

// This file implements the stop-and-copy collection algorithm of §4:
// forwarding, the iterative Cheney sweep the paper calls kleene-sweep
// (a scan of to-space in place, up to the copier's own cursors), the
// guardian protected-list algorithm (pend-hold-list / pend-final-list
// with repeated sweeps), and the weak-pair second pass that runs after
// guardian handling so that salvaged objects keep their weak
// references. There is one collection body (collect) and one copying
// core (copier); remset.go holds the remembered set.

// Collect performs a stop-and-copy collection of generations 0
// through g. Survivors are copied into the target generation: g+1, or g
// itself when g is the oldest dynamic generation or older (see
// collectBegin).
// Objects proven inaccessible that are registered with accessible
// guardians are saved from destruction and moved onto their guardians'
// tconcs; weak pointers into the collected generations are then
// updated or broken.
//
// Collect returns the collection's report: pause and per-phase
// timings, guardian-round breakdown, and the
// per-collection counter deltas. The report is heap-owned and reused
// by the next collection (see CollectionReport).
//
// The mutator is stopped by virtue of calling Collect: a heap has one
// mutator at a time (see Mutator).
func (h *Heap) Collect(g int) *CollectionReport {
	h.collectable()
	return h.collect(g)
}

// collectable refuses a collection re-entered from the collector's own
// machinery (a root provider, post-collect hook or trace callback) and
// one on a heap a failed collection left half-copied.
func (h *Heap) collectable() {
	h.check(!h.inCollect, "Collect called during a collection")
	h.check(!h.failed, "heap unusable after failed collection")
}

// collect is the collection body: begin, roots, old-to-young scan, the
// kleene-sweep to its fixpoint, and the ordered tail of collectFinish —
// guardian fixpoint, weak pass, hooks, free.
//
// A panic unwinding out of the body (out of memory on a bounded heap,
// a failed check, a panicking hook) leaves from-space half-copied:
// the heap is marked failed and refuses further use.
func (h *Heap) collect(g int) *CollectionReport {
	start := time.Now()
	g = max(0, min(g, h.MaxGeneration()))
	h.inCollect = true
	done := false
	defer func() {
		h.inCollect = false
		if !done {
			h.failed = true
		}
	}()
	from, t := h.collectBegin(g, start)

	h.cp.rootsPhase()
	t = h.phaseMark(PhaseRoots, t)
	// Old-to-young pointers: the remembered set's dirty segments, or a
	// conservative scan of all older generations when the dirty set
	// is disabled. Each strategy gets its own phase column so the
	// trace distinguishes remembered-set time from full-scan time.
	if h.cfg.UseDirtySet {
		h.cp.dirtyPhase()
		h.phaseMark(PhaseDirtyScan, t)
	} else {
		h.cp.oldScanPhase()
		h.phaseMark(PhaseOldScan, t)
	}

	h.drain()
	rep := h.collectFinish(from, start)
	done = true
	return rep
}

// drain runs the kleene-sweep — sweeping copied objects until there
// are no newly copied objects to sweep (§4) — to its fixpoint. Time
// spent here accrues to PhaseSweep regardless of the caller.
func (h *Heap) drain() {
	t0 := time.Now()
	h.cp.sweep()
	h.phaseNS[PhaseSweep] += time.Since(t0).Nanoseconds()
}

// collectBegin is the collection prologue: the target generation,
// report reset, from-space detachment (returned, for collectFinish to
// free), and the copier's to-space cursors. g is already clamped. It
// accrues PhaseSetup and returns the running phase clock. The caller
// has already set inCollect.
//
// Survivors of 0..g go to g+1, the paper's promotion; the oldest
// dynamic generation collects into itself, and so does an explicit
// collection of a static one (StaticTop). Every survivor then points
// only into its own generation or an older one, so a to-space segment
// never needs a mark and a held guardian entry belongs on the target's
// protected list.
func (h *Heap) collectBegin(g int, start time.Time) ([]int, time.Time) {
	h.stamp++
	h.gcGen = g
	target := g
	if g < h.OldestDynamic() {
		target = g + 1
	}
	h.gcTarget = target
	st := &h.Stats
	st.countCollection(g)
	h.statsSnap = *st // per-collection deltas for the report and trace
	h.phaseNS = [NumPhases]int64{}
	rep := &h.report
	rep.Seq = st.Collections
	rep.Gen, rep.Target = g, target
	// The policy's survival inputs: how many generation-0 words were
	// allocated since the last collection (segment-granular — slow
	// paths pre-charge whole segments), and the trigger in effect.
	rep.Gen0Words = uint64(h.gen0Words)
	rep.TriggerWords = h.trigger
	rep.Pause = 0
	rep.Phases = [NumPhases]time.Duration{}
	rep.GuardianRounds = 0
	rep.GuardianRoundDurations = rep.GuardianRoundDurations[:0]
	rep.ProtectedByGen = rep.ProtectedByGen[:0]

	// Detach from-space: the segment chains of every collected
	// generation. When the oldest generation collects into itself, its
	// survivors land in fresh segments stamped with the current
	// collection, so the forwarding check can tell to-space from
	// from-space.
	h.sc = getScratch()
	from := h.sc.from[:0]
	for sp := 0; sp < int(seg.NumSpaces); sp++ {
		for gen := 0; gen <= g; gen++ {
			from = append(from, h.chains[sp][gen]...)
			h.chains[sp][gen] = h.chains[sp][gen][:0]
			h.cur[sp][gen].close()
		}
	}
	for _, si := range from {
		h.tab.MarkFrom(si)
	}
	// The copier carries on in the target generation's open segments
	// (none when the oldest generation collects into itself: the loop
	// above closed its cursors, so copies go to fresh segments).
	for sp := range h.cur {
		h.cur[sp][target].handTo(&h.cp.cur[sp])
	}
	h.cp.borrow(h.sc)
	return from, h.phaseMark(PhaseSetup, start)
}

// collectFinish runs the ordered tail of every collection — guardian
// fixpoint, weak pass, cursor hand-back, report snapshot, hooks, free
// of from-space (the segments collectBegin detached) — and finalizes
// the report.
func (h *Heap) collectFinish(from []int, start time.Time) *CollectionReport {
	g, target := h.gcGen, h.gcTarget
	st := &h.Stats
	rep := &h.report

	// The guardian phase's nested kleene-sweeps accrue to PhaseSweep;
	// subtracting them leaves the protected-list bookkeeping alone in
	// the guardian column.
	sweepBase := h.phaseNS[PhaseSweep]
	tg := time.Now()
	h.guardianPhase(g, target)
	h.phaseNS[PhaseGuardian] += time.Since(tg).Nanoseconds() - (h.phaseNS[PhaseSweep] - sweepBase)

	t := time.Now()
	h.weakPass(g)
	t = h.phaseMark(PhaseWeak, t)

	// All copying is done: the target generation's allocation carries
	// on in the copier's open segments. A scan that stopped short of a
	// cursor would leave copies pointing into from-space, found only
	// collections later as dangling pointers; catch it here.
	h.cp.checkSwept()
	for sp := range h.cp.cur {
		h.cp.cur[sp].handTo(&h.cur[sp][target])
	}

	// Snapshot the per-generation protected-list sizes and the counter
	// deltas into the report before the hooks run, so a hook (or any
	// goroutine the report is handed to later) reads a stable record
	// instead of racing with live collector state.
	for _, lst := range h.protected {
		rep.ProtectedByGen = append(rep.ProtectedByGen, len(lst))
	}
	snap := &h.statsSnap
	rep.WordsCopied = st.WordsCopied - snap.WordsCopied
	rep.PairsCopied = st.PairsCopied - snap.PairsCopied
	rep.ObjectsCopied = st.ObjectsCopied - snap.ObjectsCopied
	rep.CellsSwept = st.CellsSwept - snap.CellsSwept
	rep.SweepPasses = st.SweepPasses - snap.SweepPasses
	rep.DirtyCellsScanned = st.DirtyCellsScanned - snap.DirtyCellsScanned
	rep.GuardianScanned = st.GuardianEntriesScanned - snap.GuardianEntriesScanned
	rep.GuardianSalvaged = st.GuardianEntriesSalvaged - snap.GuardianEntriesSalvaged
	rep.GuardianHeld = st.GuardianEntriesHeld - snap.GuardianEntriesHeld
	rep.GuardianDropped = st.GuardianEntriesDropped - snap.GuardianEntriesDropped
	rep.WeakScanned = st.WeakPairsScanned - snap.WeakPairsScanned
	rep.WeakBroken = st.WeakPointersBroken - snap.WeakPointersBroken
	for i := range h.phaseNS {
		rep.Phases[i] = time.Duration(h.phaseNS[i])
	}

	// Post-collect hooks run while forwarding words are still readable
	// (from-space not yet freed), so hooks can ask whether a value
	// survived — the weak symbol-table pruning in package scheme needs
	// exactly this window. Hooks receive the report; its hooks/free
	// phase timings and Pause are finalized only after they return.
	for _, fn := range h.postCollect {
		fn(h, rep)
	}
	t = h.phaseMark(PhaseHooks, t)

	// Large-object runs are retired whole through FreeRun, which pools
	// them by size class for reuse by the next same-length allocation;
	// a continuation whose head was already retired keeps its Cont
	// mark, so the loop recognizes and skips it. Retiring a segment
	// clears its info entry, from-space bit included.
	for _, si := range from {
		if h.tab.Seg(si).Cont {
			continue // covered by its run head's FreeRun
		}
		if h.tab.RunLen(si) > 1 {
			st.SegmentsFreed += uint64(h.tab.FreeRun(si))
			continue
		}
		h.tab.Free(si)
		st.SegmentsFreed++
	}
	h.sc.from = from[:0]
	h.cp.giveBack(h.sc)
	putScratch(h.sc)
	h.sc = nil
	h.phaseMark(PhaseFree, t)

	h.gen0Words = 0
	h.needCollect = false
	rep.SegmentsFreed = st.SegmentsFreed - snap.SegmentsFreed
	rep.Pause = time.Since(start)
	st.TotalPause += rep.Pause
	for i := range h.phaseNS {
		d := time.Duration(h.phaseNS[i])
		rep.Phases[i] = d
		st.PhaseTotals[i] += d
	}
	// Let the policy retune the generation-0 trigger from this
	// collection's figures (static policies return the input).
	if nt := h.policy.NextTrigger(rep, h.trigger); nt != h.trigger {
		if nt < MinTriggerWords {
			nt = MinTriggerWords
		}
		h.trigger = nt
	}
	h.recordTrace(rep)
	return rep
}

// phaseMark accrues the time elapsed since t0 to phase p and returns
// the new phase start time.
func (h *Heap) phaseMark(p Phase, t0 time.Time) time.Time {
	now := time.Now()
	h.phaseNS[p] += now.Sub(t0).Nanoseconds()
	return now
}

// copier is the copying core of §4: forward and the kleene-sweep's
// scan of to-space, written once and parameterized — in the manner of
// CertiCoq's forward — by the "next available spot in to-space" it owns
// (cur), which is also the frontier the scan sweeps up to. The heap has
// exactly one (Heap.cp). It runs inline on the collecting goroutine
// with the world stopped, so it installs forwarding words with plain
// stores and claims to-space segments straight from the table.
type copier struct {
	h *Heap

	// cur is the to-space cursor: the open target-generation segment
	// per space, bump-allocated without locks.
	cur [seg.NumSpaces]cursor

	// pending has a bit per space (1<<space) allocated into since the
	// current sweep pass took its frontiers: the spaces whose scans have
	// work. fresh reports whether any of it is a copied object in a
	// swept space: a pass counts in Stats.SweepPasses only when it
	// sweeps one, so the tconc pairs the guardian phase appends make no
	// pass of their own.
	pending uint8
	fresh   bool

	// The lists below are the borrowed collectScratch's arrays during a
	// collection (borrow, giveBack) and nil between.
	large    []uint64 // large objects (runs) copied and not yet swept
	newWeak  []uint64 // weak pairs copied this collection
	pendWeak []uint64 // weak cars deferred by the dirty or old scan

	visit func(*obj.Value) // persistent visitor closure for root providers
}

// swept has a bit per space the kleene-sweep scans; data-space objects
// hold no pointers.
const swept = 1<<seg.SpacePair | 1<<seg.SpaceWeak | 1<<seg.SpaceObj

// spaceScan is the kleene-sweep's scan of one space: the to-space
// segments the copier's cursor opened this collection, in order — the
// first the target generation's open segment when it was handed over
// part full — and the scan position, word off of segment segs[i],
// below which every copy has been swept. The words of the handed-over
// segment below the cursor were there before the collection and are
// not swept; the cursor's position is the frontier the scan chases.
type spaceScan struct {
	segs   []int
	i, off int
}

// collectScratch is a collection's work lists: the kleene-sweep's
// to-space scans and large-object list, the copier's weak-pair lists,
// the guardian phase's gathered protected entries (registration order)
// and its pend-hold / pend-final partitions of §4, and the from-space
// segment list. A collection borrows one from scratchPool and gives it
// back at its end with the lists emptied and their arrays kept, so a
// steady-state collection does not allocate and a heap between
// collections holds none of them.
type collectScratch struct {
	scan                             [seg.NumSpaces]spaceScan
	large, newWeak, pendWeak         []uint64
	guardEnts, guardHold, guardFinal []ProtEntry
	from                             []int
}

// scratchPoolCap bounds scratchPool. Only as many collections run at
// once as there are goroutines collecting, a few in a server; a put to
// a full pool drops its scratch for the Go collector.
const scratchPoolCap = 16

// scratchPool is the process's bounded LIFO of collection scratch,
// shared by every heap as seg.Pool's arrays are shared by a clone
// family. LIFO hands a heap that collects again the scratch it just
// gave back. Safe for concurrent use.
var scratchPool struct {
	mu   sync.Mutex
	free []*collectScratch
}

// getScratch takes a scratch from the pool, or makes one when it is
// empty.
func getScratch() *collectScratch {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	n := len(scratchPool.free)
	if n == 0 {
		return new(collectScratch)
	}
	sc := scratchPool.free[n-1]
	scratchPool.free[n-1] = nil
	scratchPool.free = scratchPool.free[:n-1]
	return sc
}

// putScratch parks sc; a full pool drops it instead.
func putScratch(sc *collectScratch) {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if len(scratchPool.free) < scratchPoolCap {
		scratchPool.free = append(scratchPool.free, sc)
	}
}

// borrow points the copier's work lists at sc's arrays, emptied, and
// starts each space's scan at its to-space cursor, which collectBegin
// has just handed over.
func (c *copier) borrow(sc *collectScratch) {
	c.pending, c.fresh = 0, false
	c.large = sc.large[:0]
	c.newWeak, c.pendWeak = sc.newWeak[:0], sc.pendWeak[:0]
	for sp := range sc.scan {
		s, cur := &sc.scan[sp], &c.cur[sp]
		s.segs, s.i, s.off = s.segs[:0], 0, 0
		if cur.s != nil && swept&(1<<sp) != 0 {
			s.segs, s.off = append(s.segs, int(cur.seg)), int(cur.off)
		}
	}
}

// giveBack stores the copier's work lists, grown or not, into sc and
// drops the copier's references to them.
func (c *copier) giveBack(sc *collectScratch) {
	sc.large = c.large[:0]
	sc.newWeak, sc.pendWeak = c.newWeak[:0], c.pendWeak[:0]
	c.large, c.newWeak, c.pendWeak = nil, nil, nil
}

// init readies the heap's copier: closed cursors and the root
// providers' visitor.
func (c *copier) init(h *Heap) {
	c.h = h
	c.visit = func(pv *obj.Value) { *pv = c.forward(*pv) }
	for sp := range c.cur {
		c.cur[sp].close()
	}
}

// forward copies v's referent into the target generation if it lives
// in from-space and has not been copied yet, and returns the (possibly
// updated) value. Immediates and referents in older generations or in
// to-space are returned unchanged, on the from-space bit alone. An
// ordinary pair's copy carries on down its cdrs (chase).
func (c *copier) forward(v obj.Value) obj.Value {
	if c.h.inFrom(v) {
		return c.copyOut(v, true)
	}
	return v
}

// forwardRep is forward without the chase, for the guardian phase: a
// representative it saves makes only itself accessible until the next
// drain, as in the paper's loop, so a tconc further down the
// representative's cdrs does not become accessible within the round
// and salvage order is the paper's.
func (c *copier) forwardRep(v obj.Value) obj.Value {
	if c.h.inFrom(v) {
		return c.copyOut(v, false)
	}
	return v
}

// copyOut is forward and forwardRep past their from-space filter: v
// points into from-space. The referent's info entry, one load as in §4,
// gives its space and whether its words alias a template array (then
// privatized first); the directory gives the window src it is read and
// forwarded through, and alloc returns the to-space window dst. Only a
// large object's copy goes by segment.
func (c *copier) copyOut(v obj.Value, chase bool) obj.Value {
	h := c.h
	addr := v.Addr()
	idx := seg.SegIndexOf(addr)
	inf := h.tab.Info(idx)
	if inf&seg.InfoShared != 0 {
		h.tab.Writable(idx)
	}
	src := h.tab.Words(idx)[seg.Offset(addr):]
	w0 := src[0]
	if obj.IsFwd(w0) {
		return v.WithAddr(obj.FwdAddr(w0))
	}
	if v.IsPair() {
		space := inf.Space()
		na, dst := c.alloc(space, 2)
		dst[0], dst[1] = w0, src[1]
		src[0] = obj.MakeFwd(na)
		h.Stats.PairsCopied++
		h.Stats.WordsCopied += 2
		c.fresh = true
		if space == seg.SpaceWeak {
			c.newWeak = append(c.newWeak, na)
		} else if chase && obj.Value(dst[1]).IsPair() {
			c.chase((*[2]uint64)(dst))
		}
		return v.WithAddr(na)
	}
	if !obj.IsHeader(w0) {
		h.noHeader("forward", addr)
	}
	k := obj.HeaderKind(w0)
	space, total := objSpace(k), 1+obj.PayloadWords(k, obj.HeaderLength(w0))
	var na uint64
	if total > seg.Words {
		// Both runs start on a segment boundary: the copy goes a
		// segment at a time.
		na = c.allocRun(space, total)
		for i, d := 0, seg.SegIndexOf(na); i*seg.Words < total; i++ {
			copy(h.tab.Words(d + i)[:], h.tab.Words(idx + i)[:min(seg.Words, total-i*seg.Words)])
		}
		if space != seg.SpaceData {
			c.large = append(c.large, na) // no scan reaches a run
		}
	} else {
		var dst []uint64
		na, dst = c.alloc(space, total)
		dst[0] = w0
		copy(dst[1:], src[1:total])
	}
	src[0] = obj.MakeFwd(na)
	h.Stats.ObjectsCopied++
	h.Stats.WordsCopied += uint64(total)
	if space != seg.SpaceData { // data objects hold no pointers to sweep
		c.fresh = true
	}
	return v.WithAddr(na)
}

// chase copies a list in list order: dst is the to-space window of the
// ordinary pair just copied, and while its cdr is an ordinary pair in
// from-space that is not yet forwarded, that pair is copied into the
// next to-space slot, dst's cdr is set to the copy, and the copy becomes
// dst. The chain stops at an immediate, at a forwarded pair (dst's cdr
// takes its forwarding address), at a referent outside from-space, and
// at a weak pair or an object, which the sweep forwards like every car.
// So a cdr-linked list is copied whole by the forward that reaches its
// head and swept in one pass, while a car-linked structure is still
// swept breadth-first. A loop, not a recursion: a list of any length
// takes one frame. The pair space's scan already has work (the pair
// copyOut just copied), so the loop bumps the to-space cursor itself
// and counts its copies once, at the end.
//
// The loop's state is in locals, as CertiCoq's forward keeps its
// from-space bounds and next pointer in arguments. Consecutive cdrs
// mostly share a from-space segment, so the source segment's info test
// (from-space, pair space), its privatization and its words lookup run
// only when the cdr leaves the last source segment (srcIdx): a cached
// segment is private from then on, so srcW stays its words. The next
// cdr is the word just read from from-space, not read back from the
// copy: a list walk is a chain of dependent loads, and that keeps a
// store-to-load hop off it. The to-space cursor is held as its words,
// base address and offset and written back to cur (off and the
// segment's Fill) before open and at the end, so Verify's cursor check
// (an open cursor's Fill is its offset) holds whenever anything outside
// the loop can look.
func (c *copier) chase(dst *[2]uint64) {
	tab, cur := c.h.tab, &c.cur[seg.SpacePair]
	base, tw, off := seg.BaseAddr(int(cur.seg)), cur.w, int(cur.off)
	srcIdx, srcW := seg.None, (*[seg.Words]uint64)(nil)
	var n uint64
	for cdr := obj.Value(dst[1]); cdr.IsPair(); {
		addr := cdr.Addr()
		if idx := seg.SegIndexOf(addr); idx != srcIdx {
			if tab.Info(idx)&(seg.InfoFrom|seg.InfoSpace) != seg.InfoFrom|seg.Info(seg.SpacePair) {
				break
			}
			srcIdx, srcW = idx, tab.Writable(idx)
		}
		o := seg.Offset(addr)
		w0 := srcW[o]
		if obj.IsFwd(w0) {
			dst[1] = uint64(cdr.WithAddr(obj.FwdAddr(w0)))
			break
		}
		if off+2 > seg.Words {
			cur.off, cur.s.Fill = int32(off), off
			c.open(seg.SpacePair)
			base, tw, off = seg.BaseAddr(int(cur.seg)), cur.w, 0
		}
		na := base + uint64(off)
		nd := (*[2]uint64)(tw[off:])
		w1 := srcW[o+1]
		nd[0], nd[1] = w0, w1
		srcW[o] = obj.MakeFwd(na)
		dst[1] = uint64(cdr.WithAddr(na))
		dst, cdr = nd, obj.Value(w1)
		off += 2
		n++
	}
	cur.off, cur.s.Fill = int32(off), off
	st := &c.h.Stats
	st.PairsCopied += n
	st.WordsCopied += 2 * n
	st.WordsAllocated += 2 * n
}

// alloc bump-allocates n (<= seg.Words) words of to-space in the given
// space, opening a fresh target-generation segment when the open one
// is full, and returns their address and the words themselves.
func (c *copier) alloc(space seg.Space, n int) (uint64, []uint64) {
	c.h.Stats.WordsAllocated += uint64(n)
	c.pending |= 1 << space
	cur := &c.cur[space]
	if !cur.fits(n) {
		c.open(space)
	}
	return cur.bump(n)
}

// open opens a fresh target-generation to-space segment in space, on
// its chain and, in a swept space, its scan.
func (c *copier) open(space seg.Space) {
	h := c.h
	h.claimable(1, "to-space segment")
	idx := h.tab.Alloc(space, h.gcTarget, h.stamp)
	h.chains[space][h.gcTarget] = append(h.chains[space][h.gcTarget], idx)
	if swept&(1<<space) != 0 {
		s := &h.sc.scan[space]
		s.segs = append(s.segs, idx)
	}
	c.cur[space].open(h.tab, idx)
	h.Stats.SegmentsAllocated++
}

// allocRun allocates a large-object run of contiguous target-generation
// segments for a copy of total words and returns its address.
func (c *copier) allocRun(space seg.Space, total int) uint64 {
	h := c.h
	k := (total + seg.Words - 1) / seg.Words
	h.claimable(k, "large object")
	first := h.tab.AllocRun(space, h.gcTarget, h.stamp, k)
	h.fillRun(first, k, total)
	for i := 0; i < k; i++ {
		h.chains[space][h.gcTarget] = append(h.chains[space][h.gcTarget], first+i)
	}
	h.Stats.WordsAllocated += uint64(total)
	h.Stats.SegmentsAllocated += uint64(k)
	return seg.BaseAddr(first)
}

// sweep runs the kleene-sweep to its fixpoint, in passes. Each pass
// first takes the frontier of every swept space allocated into since
// the last pass took its own (the others have nothing to scan) from
// the copier's cursor — before scanning any space, so that what one
// space's scan copies into another waits for the next pass — then
// scans each of those spaces from its scan position up to its
// frontier, and sweeps the large objects queued before the pass. The
// objects copied while sweeping one pass form the next, breadth-first,
// and each pass that sweeps a copied object counts as one, so
// Stats.SweepPasses reports the paper's "iterated" sweep depth: a cdr
// chain of k pairs is one pass (forward chases it whole), a car chain
// k. A drain that finds nothing to sweep records no pass, and the
// re-sweeps triggered inside the guardian phase's salvage loop are
// counted like any other.
func (c *copier) sweep() {
	h := c.h
	sc := h.sc
	for {
		work := c.pending & swept
		if work == 0 && len(c.large) == 0 {
			return
		}
		c.pending = 0
		if c.fresh {
			h.Stats.SweepPasses++
			c.fresh = false
		}
		// The frontier: segment (in the space's list) and offset.
		var fi, fo [seg.NumSpaces]int
		for m := work; m != 0; m &= m - 1 {
			sp := bits.TrailingZeros8(m)
			fi[sp], fo[sp] = len(sc.scan[sp].segs)-1, int(c.cur[sp].off)
		}
		nl := len(c.large)
		for m := work; m != 0; m &= m - 1 {
			sp := seg.Space(bits.TrailingZeros8(m))
			c.scanTo(sp, &sc.scan[sp], fi[sp], fo[sp])
		}
		for _, addr := range c.large[:nl] {
			hd := h.word(addr)
			n := obj.PayloadWords(obj.HeaderKind(hd), obj.HeaderLength(hd))
			c.fwdWords(addr+1, n)
			h.Stats.CellsSwept += uint64(n)
		}
		if nl > 0 {
			c.large = append(c.large[:0], c.large[nl:]...)
		}
	}
}

// scanTo sweeps space sp's to-space, whose scan is s, from the scan
// position up to word endOff of segment segs[endI], a window per
// segment, and leaves the scan position there. The segment the cursor
// is in needs no table lookup; the pass may have moved the cursor on
// since it took endI.
func (c *copier) scanTo(sp seg.Space, s *spaceScan, endI, endOff int) {
	for {
		i, from, to := s.i, s.off, endOff
		ts, w := c.cur[sp].s, c.cur[sp].w
		if i != len(s.segs)-1 {
			ts, w = c.h.tab.Seg(s.segs[i]), c.h.tab.Words(s.segs[i])
		}
		if i < endI {
			to = ts.Fill // the cursor has moved past this segment
			s.i, s.off = i+1, 0
		} else {
			s.off = to
		}
		c.sweepWindow(sp, s.segs[i], from, w[from:to])
		if i == endI {
			return
		}
	}
}

// sweepWindow forwards in place every pointer field of the objects
// copied into w, words off.. of to-space segment idx of space sp: all
// of a pair window, the cdrs of a weak-pair window (the weak-pair pass
// fixes the cars), and each object's payload in an obj window, by a
// header walk.
func (c *copier) sweepWindow(sp seg.Space, idx, off int, w []uint64) {
	st := &c.h.Stats
	switch sp {
	case seg.SpacePair:
		c.fwdWindow(w)
		st.CellsSwept += uint64(len(w))
	case seg.SpaceWeak:
		for i := 1; i < len(w); i += 2 {
			w[i] = uint64(c.forward(obj.Value(w[i])))
		}
		st.CellsSwept += uint64(len(w) / 2)
	case seg.SpaceObj:
		for i := 0; i < len(w); {
			hd := w[i]
			if !obj.IsHeader(hd) {
				c.h.noHeader("sweep", seg.BaseAddr(idx)+uint64(off+i))
			}
			n := obj.PayloadWords(obj.HeaderKind(hd), obj.HeaderLength(hd))
			c.fwdWindow(w[i+1 : i+1+n])
			st.CellsSwept += uint64(n)
			i += 1 + n
		}
	}
}

// checkSwept checks that the kleene-sweep reached its fixpoint: every
// swept space's scan position is at its cursor, and no large object
// waits. The check fails out of line, so that it boxes nothing.
func (c *copier) checkSwept() {
	h := c.h
	for sp := range seg.NumSpaces {
		s := &h.sc.scan[sp]
		if swept&(1<<sp) != 0 && len(s.segs) > 0 && (s.i != len(s.segs)-1 || s.off != int(c.cur[sp].off)) {
			h.sweptShort(sp.String())
		}
	}
	if len(c.large) > 0 {
		h.sweptShort("large-object")
	}
}

// sweptShort is checkSwept's failure.
//
//go:noinline
func (h *Heap) sweptShort(what string) {
	h.check(false, "kleene-sweep stopped short of the %s to-space frontier", what)
}

// fwdWindow forwards in place every pointer field of the window w. The
// from-space filter is forward's, inline, on the table's info array
// taken once for the window: an immediate or a referent outside
// from-space costs the word's tag test and one indexed load, and only
// a from-space referent calls copyOut. A copy can open a segment and
// so grow the table, which may move the array: it is taken again after
// every copyOut.
func (c *copier) fwdWindow(w []uint64) {
	tab := c.h.tab
	info := tab.Infos()
	for i, x := range w {
		if v := obj.Value(x); v.IsPointer() && info[seg.SegIndexOf(v.Addr())]&seg.InfoFrom != 0 {
			w[i] = uint64(c.copyOut(v, true))
			info = tab.Infos()
		}
	}
}

// fwdWords forwards in place the n pointer fields at addr, a segment
// window at a time (one info and one directory load each): more than
// one only inside a large object's run.
func (c *copier) fwdWords(addr uint64, n int) {
	for n > 0 {
		w := c.h.window(addr, n)
		c.fwdWindow(w)
		addr, n = addr+uint64(len(w)), n-len(w)
	}
}

// fwdCell forwards in place one isolated cell (a recorded store).
func (c *copier) fwdCell(addr uint64) { c.fwdWords(addr, 1) }

// scanSeg forwards in place every pointer field of every object in
// segment idx, deferring weak cars to the weak-pair pass: the walk of
// an older generation's segment when the dirty set is disabled
// (oldScanPhase). Large-object continuation segments are skipped: the
// header walk of the run's head segment covers the whole run (fwdWords
// carries on through it); data segments hold no pointers.
func (c *copier) scanSeg(idx int) {
	st := &c.h.Stats
	s := c.h.tab.Seg(idx)
	if s.Cont {
		return
	}
	base := seg.BaseAddr(idx)
	switch c.h.tab.Info(idx).Space() {
	case seg.SpacePair:
		c.fwdWords(base, s.Fill)
		st.DirtyCellsScanned += uint64(s.Fill)
	case seg.SpaceWeak:
		for off := 0; off+1 < s.Fill; off += 2 {
			c.pendWeak = append(c.pendWeak, base+uint64(off))
			c.fwdCell(base + uint64(off) + 1)
			st.DirtyCellsScanned += 2
		}
	case seg.SpaceObj:
		for off := 0; off < s.Fill; {
			hd := c.h.tab.Words(idx)[off] // afresh each time: fwdWords may privatize the segment
			if !obj.IsHeader(hd) {
				c.h.noHeader("scanSeg", base+uint64(off))
			}
			n := obj.PayloadWords(obj.HeaderKind(hd), obj.HeaderLength(hd))
			c.fwdWords(base+uint64(off)+1, n)
			st.DirtyCellsScanned += uint64(n)
			off += 1 + n
		}
	}
}

// rootsPhase forwards the roots: explicit root slots, then registered
// providers.
func (c *copier) rootsPhase() {
	h := c.h
	for _, rc := range h.rootChunks {
		for o := range rc.vals {
			if rc.live[o] {
				rc.vals[o] = c.forward(rc.vals[o])
			}
		}
	}
	for _, p := range h.providers {
		p.v.VisitRoots(c.visit)
	}
}

// oldScanPhase is the conservative alternative to the dirty set: every
// cell of every older generation is visited, exactly as a collector
// without remembered sets must. It exists as an ablation baseline and
// as a correctness oracle for the dirty-set implementation. Segments
// the scan itself allocates carry the current stamp and are skipped.
func (c *copier) oldScanPhase() {
	h := c.h
	for idx := 0; idx < h.tab.Len(); idx++ {
		if !h.tab.InUse(idx) || h.tab.Info(idx).Gen() <= h.gcGen {
			continue
		}
		if s := h.tab.Seg(idx); !s.Cont && s.Stamp != h.stamp {
			c.scanSeg(idx)
		}
	}
}

// inFrom reports whether v points into from-space of the collection in
// progress: the copier's filter, the referent's info entry alone.
func (h *Heap) inFrom(v obj.Value) bool {
	return v.IsPointer() && h.tab.Info(seg.SegIndexOf(v.Addr()))&seg.InfoFrom != 0
}

// isForwarded implements the paper's forwarded? predicate: true when
// the object has been forwarded during this collection or resides in a
// generation older than those being collected (including to-space).
// Immediates are trivially accessible.
func (h *Heap) isForwarded(v obj.Value) bool {
	_, ok := h.survivor(v)
	return ok
}

// fwdAddrOf implements get-fwd-addr: the forwarding address of v, or v
// itself when it was not subject to collection.
func (h *Heap) fwdAddrOf(v obj.Value) obj.Value {
	nv, ok := h.survivor(v)
	if !ok {
		h.notForwarded(v.Addr())
	}
	return nv
}

// notForwarded is fwdAddrOf's failure, out of line like noHeader: the
// guardian phase calls fwdAddrOf for every entry it keeps or salvages.
//
//go:noinline
func (h *Heap) notForwarded(addr uint64) {
	panic(fmt.Sprintf("heap: fwdAddrOf: object not forwarded at %d", addr))
}

// survivor returns v's location after the collection in progress, and
// false when it has none: the referent is subject to the collection (in
// a collected generation, not in to-space) and not forwarded (yet).
func (h *Heap) survivor(v obj.Value) (obj.Value, bool) {
	if !h.inFrom(v) {
		return v, true
	}
	if w := h.word(v.Addr()); obj.IsFwd(w) {
		return v.WithAddr(obj.FwdAddr(w)), true
	}
	return obj.False, false
}

// AddPostCollectHook registers fn to run at the end of every
// collection, after guardian and weak-pair processing but before
// from-space is freed. Inside the hook, Survived reports whether a
// pre-collection value is still live and returns its new location.
// The hook also receives the collection's report (the same heap-owned
// record Collect returns); its hooks/free phase timings and Pause are
// finalized only after all hooks return.
func (h *Heap) AddPostCollectHook(fn func(*Heap, *CollectionReport)) {
	h.postCollect = append(h.postCollect, fn)
}

// Survived is valid only inside a post-collect hook: it reports
// whether v (a value read before the collection) survived, and if so
// returns its current location. Values in uncollected generations
// trivially survive.
func (h *Heap) Survived(v obj.Value) (obj.Value, bool) {
	h.check(h.inCollect, "Survived called outside a post-collect hook")
	return h.survivor(v)
}

// InstallGuardian registers v with the guardian represented by the
// tconc: the low-level interface of §4. A new entry is added to the
// protected list for generation 0; v itself serves as its own
// representative, so v is salvaged and enqueued when proven
// inaccessible.
func (h *Heap) InstallGuardian(v, tconc obj.Value) {
	h.InstallGuardianRep(v, v, tconc)
}

// InstallGuardianRep registers v with a separate representative rep
// (§5's generalization): when v is proven inaccessible, rep — rather
// than v — is saved and enqueued on the tconc, allowing v itself to be
// reclaimed when something smaller suffices for finalization. With
// rep == v this is the plain interface.
func (h *Heap) InstallGuardianRep(v, rep, tconc obj.Value) {
	if !tconc.IsPair() {
		h.badTconc(tconc)
	}
	h.protected[0] = append(h.protected[0], ProtEntry{Obj: v, Rep: rep, Tconc: tconc})
	h.Stats.GuardianRegistrations++
}

// badTconc is InstallGuardianRep's failure, out of line so that a
// registration boxes nothing.
//
//go:noinline
func (h *Heap) badTconc(tconc obj.Value) {
	panic(fmt.Sprintf("heap: install-guardian: tconc must be a pair: %v", tconc))
}

// ProtectedCount returns the total number of pending protected-list
// entries (used by tests and the E1 benchmark).
func (h *Heap) ProtectedCount() int {
	n := 0
	for _, lst := range h.protected {
		n += len(lst)
	}
	return n
}

// guardianPhase implements the protected-list algorithm of §4. The
// first block separates accessible objects (pend-hold-list) from
// inaccessible ones (pend-final-list). The loop then repeatedly
// salvages inaccessible objects whose tconcs are accessible — each
// salvage can make further tconcs accessible, hence the repeated
// kleene-sweep — and migrates accessible entries whose tconcs are
// accessible to the target generation's protected list. Entries whose
// tconcs never become accessible are discarded entirely, so dropping a
// guardian cancels finalization of everything registered with it.
//
// Protected lists of generations older than g are not touched at all:
// the overhead is proportional to the work the collector is already
// doing (the paper's generation-friendliness claim, experiment E1).
//
// Each round checks every pending entry's tconc once, in registration
// order, so a salvage earlier in a round can make a later entry's
// tconc accessible within the same round, exactly as the paper's loop
// observes it.
func (h *Heap) guardianPhase(g, target int) {
	st := &h.Stats
	rep := &h.report
	c := &h.cp
	// Gather the protected entries of every collected generation in
	// registration order (generation 0..g, list order within each);
	// this order is what the per-round passes below preserve.
	sc := h.sc
	ents := sc.guardEnts[:0]
	for i := 0; i <= g; i++ {
		ents = append(ents, h.protected[i]...)
		h.protected[i] = h.protected[i][:0]
	}
	sc.guardEnts = ents
	st.GuardianEntriesScanned += uint64(len(ents))
	if len(ents) == 0 {
		return
	}

	// Initial partition: accessible objects pend-hold, inaccessible
	// pend-final.
	pendHold, pendFinal := sc.guardHold[:0], sc.guardFinal[:0]
	for _, e := range ents {
		if h.isForwarded(e.Obj) {
			pendHold = append(pendHold, e)
		} else {
			pendFinal = append(pendFinal, e)
		}
	}

	for {
		rep.GuardianRounds++
		roundStart := time.Now()
		progress := false
		rest := pendFinal[:0]
		for _, e := range pendFinal {
			if h.isForwarded(e.Tconc) {
				// The object is inaccessible and its guardian is
				// alive: save the representative from destruction and
				// enqueue it on the guardian's tconc.
				r := c.forwardRep(e.Rep)
				tc := h.fwdAddrOf(e.Tconc)
				h.tconcAddGC(tc, r)
				st.GuardianEntriesSalvaged++
				progress = true
			} else {
				rest = append(rest, e)
			}
		}
		pendFinal = rest
		restH := pendHold[:0]
		for _, e := range pendHold {
			if h.isForwarded(e.Tconc) {
				ne := ProtEntry{
					Obj:   h.fwdAddrOf(e.Obj),
					Rep:   c.forwardRep(e.Rep),
					Tconc: h.fwdAddrOf(e.Tconc),
				}
				h.protected[target] = append(h.protected[target], ne)
				st.GuardianEntriesHeld++
				progress = true
			} else {
				restH = append(restH, e)
			}
		}
		pendHold = restH
		if !progress {
			rep.GuardianRoundDurations = append(rep.GuardianRoundDurations, time.Since(roundStart))
			break
		}
		// Salvaged objects (and newly forwarded representatives) may
		// point at tconcs of other guardians, making them accessible;
		// sweep and try again.
		h.drain()
		rep.GuardianRoundDurations = append(rep.GuardianRoundDurations, time.Since(roundStart))
		if h.cfg.GuardianSinglePass {
			break // ablation: no fixpoint iteration
		}
	}
	sc.guardHold, sc.guardFinal = pendHold[:0], pendFinal[:0]
	// Remaining entries belong to guardians that are themselves
	// inaccessible: both the entries and (eventually) the registered
	// objects are reclaimed.
	st.GuardianEntriesDropped += uint64(len(pendFinal) + len(pendHold))
}

// tconcAddGC performs the collector side of the tconc protocol
// (Figure 3): the car of the old last pair is set to the new element
// and the cdr fields of both the old last pair and the header are
// pointed at a new last pair — the header's cdr last, so a mutator
// interrupted at any point never observes a partially installed
// element. Writes into tconcs living in older generations go through
// the barrier, since the enqueued object is young.
func (h *Heap) tconcAddGC(tc, v obj.Value) {
	last := h.valueAt(tc.Addr() + 1)
	h.check(last.IsPair(), "tconc: malformed header (cdr not a pair)")
	na, w := h.cp.alloc(seg.SpacePair, 2)
	w[0], w[1] = uint64(obj.False), uint64(obj.False)
	newLast := obj.PairAt(na)
	h.writeCell(last.Addr(), v)         // car of old last := element
	h.writeCell(last.Addr()+1, newLast) // cdr of old last := new last
	h.writeCell(tc.Addr()+1, newLast)   // header cdr := new last (final)
}

// weakPass is the second pass through the weak-pair space (§4), run
// after the collector has handled the protected lists so that weak
// pointers to salvaged objects survive. The car of each weak pair
// copied during this collection is forwarded if its referent was
// forwarded, left alone if the referent lives in an older generation,
// and broken to #f otherwise. The weak cars the dirty scan (or the
// old-generation scan) deferred get the same treatment.
func (h *Heap) weakPass(g int) {
	c := &h.cp
	if h.cfg.WeakScanAll {
		// Ablation baseline: visit every weak pair in the heap.
		for idx := 0; idx < h.tab.Len(); idx++ {
			inf := h.tab.Info(idx)
			if !h.tab.InUse(idx) || inf.Space() != seg.SpaceWeak {
				continue
			}
			if inf&seg.InfoFrom != 0 {
				continue // about to be freed
			}
			base := seg.BaseAddr(idx)
			for off := 0; off+1 < h.tab.Seg(idx).Fill; off += 2 {
				h.weakFixCell(base + uint64(off))
			}
		}
		c.newWeak, c.pendWeak = c.newWeak[:0], c.pendWeak[:0]
		return
	}
	for _, addr := range c.newWeak {
		h.weakFixCell(addr)
	}
	for _, addr := range c.pendWeak {
		h.weakFixCell(addr)
	}
	c.newWeak, c.pendWeak = c.newWeak[:0], c.pendWeak[:0]
}

// weakFixCell fixes the weak car at addr and keeps its segment marked
// when it must be. A deferred weak car — one the dirty scan found in an
// older segment, pointing into from-space — can still point at a
// strictly younger generation once its referent is forwarded to g+1.
// Such a segment must be marked that young or later minor collections
// would never revisit it and the car would silently dangle (Verify
// invariant 4). A freshly copied weak pair never does: it lands in the
// target, no older than anything its car can reach.
func (h *Heap) weakFixCell(addr uint64) {
	if g := h.weakFix(addr); g >= 0 && h.cfg.UseDirtySet {
		h.remember(seg.SegIndexOf(addr), g)
	}
}

// weakFix updates the weak car cell at addr: forwarded referents are
// redirected, dead referents are broken to #f. It returns the
// generation the cell still points into when that is strictly younger
// than its own (so the caller can keep its segment marked), else -1.
func (h *Heap) weakFix(addr uint64) int {
	h.Stats.WeakPairsScanned++
	idx, off := seg.SegIndexOf(addr), seg.Offset(addr)
	v := obj.Value(h.tab.Words(idx)[off])
	if !v.IsPointer() {
		return -1
	}
	nv, ok := h.survivor(v)
	if nv != v {
		h.tab.Writable(idx)[off] = uint64(nv) // redirected, or broken to #f
	}
	if !ok {
		h.Stats.WeakPointersBroken++
		return -1
	}
	if g := h.genOf(nv.Addr()); g < h.tab.Info(idx).Gen() {
		return g
	}
	return -1
}
