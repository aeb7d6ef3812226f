// Package heap implements the generation-based stop-and-copy garbage
// collector of the paper, including the guardian protected-list
// algorithm of §4, weak pairs in a dedicated weak-pair space, dirty
// (remembered) sets for old-to-young pointers, and a collect-request
// mechanism mirroring Chez Scheme's collect-request-handler.
//
// The heap is word-addressed and built from 4 KB segments (package
// seg); each segment belongs to a space and a generation, recorded in
// the segment information table. Mutator values are obj.Value words.
//
// Collections happen only when the program asks for them: explicitly
// via Collect, or at a Checkpoint after the generation-0 allocation
// trigger has fired. Between those points, Values held in Go variables
// are stable; across them, only Values reachable from registered roots
// (see Root and RootVisitor) survive and may move.
package heap

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obj"
	"repro/internal/seg"
)

// Config controls heap shape and collection policy.
type Config struct {
	// Generations is the number of generations (0 .. Generations-1,
	// with 0 the youngest), as in §4's fixed strategy. Must be >= 1.
	Generations int
	// Policy is the collection policy: when each generation is
	// collected, where survivors are promoted, and the generation-0
	// allocation budget between collect requests (see the Policy
	// interface in policy.go). nil selects RadixPolicy{} — the paper's
	// fixed strategy with the stock trigger and cadence — or, with
	// AutoTune set, a fresh AdaptivePolicy.
	Policy Policy
	// AutoTune selects the feedback-driven AdaptivePolicy: the
	// generation-0 trigger and the per-generation collection cadence
	// are adjusted from measured survival rates (see AdaptivePolicy).
	// Off by default. It takes the place of a stock-cadence static
	// RadixPolicy (Radix 0 or DefaultRadix, no Target — DefaultConfig's
	// included), starting from that policy's Trigger
	// (DefaultTriggerWords when Policy is nil or the Trigger is 0), and
	// is mutually exclusive with every other Policy (set Config.Policy
	// to a configured *AdaptivePolicy for non-default bounds).
	AutoTune bool
	// UseDirtySet enables the remembered-set write barrier. When
	// false, the collector conservatively scans every word of every
	// older generation instead — the generation-unfriendly baseline
	// used by the ablation benchmarks and as a correctness oracle.
	UseDirtySet bool
	// WeakScanAll makes the weak-pair second pass visit every weak
	// segment in the heap instead of only weak pairs copied during the
	// current collection — the ablation baseline for §4's
	// generation-friendly weak handling.
	WeakScanAll bool
	// MaxSegments bounds the heap: allocations that would bring the
	// number of committed segments — in use, plus reserved in mutator
	// TLAB caches (seg.Table.CommittedCount) — above the limit panic
	// with an out-of-memory error, after draining any idle mutator
	// reservations. 0 means unbounded.
	MaxSegments int
	// GuardianSinglePass makes the guardian phase run its
	// salvage/migrate pass at most once instead of iterating to
	// fixpoint with kleene-sweeps in between — an ABLATION ONLY: the
	// paper iterates precisely because salvaged objects can make
	// further guardians accessible (registering a guardian with
	// another guardian, §3), and a single pass misses them. Experiment
	// A4 demonstrates the failure.
	GuardianSinglePass bool
	// Workers is deprecated and has no effect: the collector has one
	// copier, run inline on the collecting goroutine, as in §4. It stays
	// so that configurations setting it to 1 (or leaving it 0) still
	// build; Validate rejects every other value.
	Workers int
}

// Validate checks the configuration for nonsensical values and
// returns a descriptive error for the first one found. Zero values
// that have documented defaults (Policy) are not errors: New
// normalizes them. Validate is what New runs before
// constructing a heap — construction no longer panics on a bad
// Config; it returns the Validate error instead.
func (c Config) Validate() error {
	if c.Generations < 1 {
		return fmt.Errorf("heap: Config.Generations must be >= 1 (got %d)", c.Generations)
	}
	if rp, static := c.Policy.(RadixPolicy); c.AutoTune && c.Policy != nil &&
		(!static || rp.Target != nil || (rp.Radix != 0 && rp.Radix != DefaultRadix)) {
		return fmt.Errorf("heap: Config.AutoTune replaces only a stock-cadence RadixPolicy without a Target (set Policy to a configured *AdaptivePolicy instead)")
	}
	inner := c.Policy
	if st, ok := inner.(staticTop); ok {
		inner = st.Policy
	}
	if rp, ok := inner.(RadixPolicy); ok {
		if rp.Radix < 0 || rp.Radix == 1 {
			return fmt.Errorf("heap: RadixPolicy.Radix must be 0 (default) or >= 2 (got %d)", rp.Radix)
		}
		if rp.Trigger < 0 {
			return fmt.Errorf("heap: RadixPolicy.Trigger must be >= 0 (got %d; 0 selects the default)", rp.Trigger)
		}
	}
	if c.MaxSegments < 0 {
		return fmt.Errorf("heap: Config.MaxSegments must be >= 0 (got %d; 0 means unbounded)", c.MaxSegments)
	}
	if c.Workers != 0 && c.Workers != 1 {
		return fmt.Errorf("heap: Config.Workers must be 0 or 1 (got %d): the parallel collector was removed", c.Workers)
	}
	return nil
}

// DefaultConfig returns the configuration used throughout the examples
// and benchmarks: four generations, a 64-segment generation-0 nursery
// trigger, and radix-4 automatic collection.
func DefaultConfig() Config {
	return Config{
		Generations: 4,
		Policy:      RadixPolicy{Trigger: 64 * seg.Words, Radix: 4},
		UseDirtySet: true,
	}
}

// cursor is an allocation cursor: the open segment of one space and
// generation and the next free word in it. s, the segment's table
// entry, is resolved once, at open, so a bump walks no table — the
// entry is what the table keeps stable, not its Words slice (privatize
// and Free replace that). Only open, close and handTo set seg and s.
type cursor struct {
	seg int          // open segment index, or seg.None
	off int          // next free word within the open segment
	s   *seg.Segment // the open segment; nil exactly when seg is seg.None
}

// open points the cursor at the start of the fresh, empty segment idx.
func (c *cursor) open(t *seg.Table, idx int) { *c = cursor{seg: idx, s: t.Seg(idx)} }

// close abandons the open segment; its Fill is already exact.
func (c *cursor) close() { *c = cursor{seg: seg.None} }

// handTo moves the open segment to dst: it has exactly one cursor.
func (c *cursor) handTo(dst *cursor) {
	*dst = *c
	c.close()
}

// fits reports whether a segment is open with room for n more words.
func (c *cursor) fits(n int) bool { return c.s != nil && c.off+n <= seg.Words }

// bump carves the next n words out of the open segment — fits(n)
// holds — and returns their address and the words themselves: the
// window the caller initializes the object through.
func (c *cursor) bump(n int) (uint64, []uint64) {
	off := c.off
	c.off = off + n
	c.s.Fill = c.off
	return seg.BaseAddr(c.seg) + uint64(off), c.s.Words[off:c.off]
}

// ProtEntry is one element of a protected list: an object registered
// with a guardian, the representative to enqueue when the object is
// proven inaccessible (§5's generalization; Rep == Obj for the plain
// interface), and the guardian's tconc.
type ProtEntry struct {
	Obj   obj.Value
	Rep   obj.Value
	Tconc obj.Value
}

// dirtyCell is one entry of the sharded remembered set (see
// remset.go): a remembered cell address, with weak marking weak car
// cells whose referents belong to the weak-pair pass.
type dirtyCell struct {
	addr uint64
	weak bool
}

// Heap is a simulated Scheme heap with a generation-based collector.
//
// Concurrency. A heap runs in one of two modes. In the default legacy
// mode there is exactly one mutator goroutine and nothing is
// synchronized, matching the paper's collector, which stops the (only)
// mutator. Registering a Mutator handle (RegisterMutator) switches the
// heap to concurrent-mutator mode: any number of registered mutators
// may allocate and write concurrently — allocation goes through
// per-mutator TLABs, the write barrier's remembered set takes per-shard
// locks, and collections stop the world through the safepoint handshake
// (see mutator.go and safepoint.go). The two modes are exclusive:
// while any Mutator is registered, direct Heap allocation panics.
// Structures the heap itself maintains (segment table, chains,
// remembered set, Stats) are safe in mutator mode; racing accesses to
// the same heap *cell* are the program's to synchronize, exactly like
// racing accesses to a Go variable.
type Heap struct {
	tab *seg.Table
	cfg Config
	// policy is the resolved collection policy (resolvePolicy): the
	// live seam every policy decision goes through. It lives on the
	// heap rather than in cfg so Config round-trips (Config(),
	// CaptureTemplate) re-resolve identically and stateful policies
	// are never shared between heaps. trigger is the live generation-0
	// trigger in words, initialized from policy.InitialTrigger and
	// updated by policy.NextTrigger at the end of every collection.
	policy  Policy
	trigger int

	// Allocation state, indexed [space][generation].
	cur    [seg.NumSpaces][]cursor
	chains [seg.NumSpaces][][]int

	// Root slots live in fixed-size chunks whose addresses never
	// change; the chunk directory is copy-on-write published through an
	// atomic pointer so Root.Get/Set stay lock-free while NewRoot grows
	// the registry from another goroutine (roots.go).
	rootChunks atomic.Pointer[[]*rootChunk]
	rootsLen   int
	rootsFree  []int
	providers  []*providerEntry
	protected  [][]ProtEntry
	// rem is the sharded remembered set (remset.go). dirtyMap, normally
	// nil, is the retired map-based representation kept as a sequential
	// test oracle: when non-nil it replaces rem entirely (see
	// remset_oracle.go and the dirtyInsert/dirtyLookup dispatchers).
	rem         remSet
	dirtyMap    map[uint64]bool
	handler     func(*Heap)
	postCollect []func(*Heap, *CollectionReport)

	stamp     uint64
	inCollect atomic.Bool
	// failed is set when a panic unwound out of a collection, leaving
	// from-space half-copied: every later collection or allocation slow
	// path refuses with "heap unusable after failed collection".
	failed   atomic.Bool
	gcGen    int
	gcTarget int
	// sc is the collection's work lists, borrowed from scratchPool for
	// the length of a collection and nil otherwise (collect.go).
	sc             *collectScratch
	gen0Words      int
	needCollect    atomic.Bool
	autoCount      uint64
	allocForbidden bool
	inHandler      bool

	// Concurrent-mutator state (mutator.go, safepoint.go). allocMu
	// serializes every segment-table mutation and chain append outside
	// a stop-the-world window: mutator TLAB refills and large
	// allocations, and root/guardian registration in mutator mode. The
	// handshake fields live under spMu; spStop mirrors stopReq for the
	// lock-free safepoint poll.
	allocMu    sync.Mutex
	spMu       sync.Mutex
	spCond     *sync.Cond
	spStop     atomic.Bool
	collecting bool // a collectAs round is active (election .. resume)
	stopReq    bool // mutators must park at their next safepoint
	spParked   int  // mutators currently parked in parkLocked
	spIdle     int  // mutators in the idle state (standing safepoint)
	// muts is written under spMu AND allocMu together, so holding
	// either lock is enough to read it — OOM reclaim walks it under
	// allocMu alone (reclaimReservedLocked), the handshake under spMu
	// alone.
	muts     []*Mutator // registered mutators
	mutCount atomic.Int32
	// spWaitNS / spSuspended carry the handshake figures of the
	// current collection into its report (zero in legacy mode).
	spWaitNS    int64
	spSuspended int

	// cp is the copier (collect.go): it does all of a collection's
	// copying, inline on the collecting goroutine.
	cp copier

	// Observability (see trace.go and report.go): per-collection phase
	// timing scratch, the reusable per-collection report, the optional
	// trace ring, and the optional callback.
	phaseNS   [NumPhases]int64
	report    CollectionReport
	statsSnap Stats // Stats at collection start, for the report's deltas
	traceBuf  []TraceEvent
	traceLen  int
	traceNext int
	traceFn   func(TraceEvent)

	Stats Stats
}

// New creates a heap with the given configuration, or returns the
// Config.Validate error if the configuration is invalid. (New used to
// panic on a bad Config; callers that prefer the old behavior — tests,
// examples, configs known valid at compile time — can use MustNew.)
func New(cfg Config) (*Heap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Heap{
		tab:    &seg.Table{},
		cfg:    cfg,
		policy: resolvePolicy(cfg),
		stamp:  1,
	}
	h.trigger = h.policy.InitialTrigger()
	if h.trigger < MinTriggerWords {
		h.trigger = MinTriggerWords
	}
	h.spCond = sync.NewCond(&h.spMu)
	h.rootChunks.Store(&[]*rootChunk{})
	for sp := 0; sp < int(seg.NumSpaces); sp++ {
		h.cur[sp] = make([]cursor, cfg.Generations)
		for g := range h.cur[sp] {
			h.cur[sp][g].close()
		}
		h.chains[sp] = make([][]int, cfg.Generations)
	}
	h.protected = make([][]ProtEntry, cfg.Generations)
	h.cp.init(h)
	return h, nil
}

// resolvePolicy maps a validated Config to the Policy the heap will
// consult: AutoTune selects a fresh AdaptivePolicy (starting from the
// static policy's trigger, if one is set), an explicit Policy is
// cloned when stateful, so one Config can build many independently
// tuned heaps, and nil is the stock static strategy.
func resolvePolicy(cfg Config) Policy {
	if cfg.AutoTune {
		rp, _ := cfg.Policy.(RadixPolicy)
		return &AdaptivePolicy{Initial: rp.Trigger}
	}
	switch p := cfg.Policy.(type) {
	case PolicyCloner:
		return p.ClonePolicy()
	case nil:
		return RadixPolicy{}
	}
	return cfg.Policy
}

// MustNew is New for configurations known to be valid: it panics on a
// Validate error. Tests and examples use it where threading the error
// would only obscure the workload.
func MustNew(cfg Config) *Heap {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// NewDefault creates a heap with DefaultConfig.
func NewDefault() *Heap { return MustNew(DefaultConfig()) }

// Config returns the heap's configuration.
func (h *Heap) Config() Config { return h.cfg }

// MaxGeneration returns the oldest generation number.
func (h *Heap) MaxGeneration() int { return h.cfg.Generations - 1 }

// OldestDynamic returns the oldest generation automatic collections
// reach: MaxGeneration, or the one below it when the policy holds the
// oldest static (StaticTop). Collect(OldestDynamic()) is a full
// collection of everything the program has allocated since the static
// generation was filled.
func (h *Heap) OldestDynamic() int {
	if _, ok := h.policy.(staticTop); ok {
		return max(h.MaxGeneration()-1, 0)
	}
	return h.MaxGeneration()
}

// Policy returns the heap's resolved collection policy: the explicit
// Config.Policy (cloned if stateful), the AdaptivePolicy selected by
// Config.AutoTune, or the stock RadixPolicy.
func (h *Heap) Policy() Policy { return h.policy }

// TriggerWords returns the live generation-0 trigger: the number of
// words allocated in generation 0 between collect requests, as most
// recently set by the policy (static policies keep it at
// InitialTrigger; AdaptivePolicy retunes it every collection).
func (h *Heap) TriggerWords() int { return h.trigger }

// Stamp returns the current collection stamp; it increases by one per
// collection, so callers (such as eq hash tables) can detect that a
// collection has happened since they last hashed addresses.
func (h *Heap) Stamp() uint64 { return h.stamp }

// Epoch returns a count that advances whenever a slice of heap words
// handed out earlier (VectorWords, ObjectWords) may have gone stale:
// at every collection, which moves objects and frees their old
// segments, and at every copy-on-write privatization, which gives a
// segment new storage. Nothing resets it (Stats.Reset leaves it
// alone), so a reader that keeps such a slice across calls that may
// collect or write keeps it while Epoch is unchanged.
func (h *Heap) Epoch() uint64 { return h.stamp + h.tab.COWCopies() }

// maxObjectWords caps single-object size (128 K words = 1 MB) to catch
// runaway allocations early.
const maxObjectWords = 128 * 1024

// allocWords carves n words out of the given space and generation and
// returns the address of the first and the words themselves (nil for
// a large object: see window). It is the legacy-mode mutator
// allocation path (the collector's copier bumps its own to-space
// cursors, copier.alloc): while Mutator handles are registered,
// mutator allocation must go through their TLABs instead, and calling
// this panics (checked on the slow path, which a fresh registration
// forces by closing the open cursors).
//
// The fast path is the same pure bump the TLAB path has: no atomics,
// no trigger arithmetic, no OOM check. All per-allocation bookkeeping
// the legacy path used to pay per word — the generation-0 trigger, the
// MaxSegments check, the mode checks — is pre-charged per segment in
// allocWordsSlow, exactly like the TLAB slow path, at the cost of the
// trigger firing at most one segment early per open cursor
// (TestAllocLegacySteadyStateAllocs pins the fast path allocation-free
// and BenchmarkAllocLegacy its cost).
func (h *Heap) allocWords(space seg.Space, gen, n int) (uint64, []uint64) {
	if h.allocForbidden {
		panic("heap: allocation while allocation is forbidden (finalizer running inside GC)")
	}
	c := &h.cur[space][gen]
	if n <= 0 || !c.fits(n) {
		return h.allocWordsSlow(space, gen, n)
	}
	h.Stats.WordsAllocated += uint64(n)
	return c.bump(n)
}

// allocWordsSlow opens a fresh segment (or takes the large-object run
// path) for the legacy allocator: validation, mode checks, the
// per-segment generation-0 trigger charge, and the bounded-heap OOM
// check all live here, off the bump path.
func (h *Heap) allocWordsSlow(space seg.Space, gen, n int) (uint64, []uint64) {
	if n <= 0 || n > maxObjectWords {
		panic(fmt.Sprintf("heap: bad allocation size %d", n))
	}
	h.check(!h.failed.Load(), "heap unusable after failed collection")
	if h.mutCount.Load() != 0 {
		panic("heap: direct Heap allocation while mutators are registered (allocate through a Mutator handle)")
	}
	k := (n + seg.Words - 1) / seg.Words
	h.claimable(k, k, "allocation")
	// Pre-charge the claimed segment against the generation-0 trigger,
	// mirroring the TLAB slow path: the trigger fires at most one
	// segment's worth of words early, and the bump path stays free of
	// trigger arithmetic. Large objects charge their exact size (they
	// occupy their run exclusively).
	h.gen0Words += max(n, seg.Words)
	if h.gen0Words >= h.trigger {
		h.needCollect.Store(true)
	}
	h.Stats.WordsAllocated += uint64(n)
	h.Stats.SegmentsAllocated += uint64(k)
	if n > seg.Words {
		// Large object: a contiguous run, pooled by size class in the
		// segment table (seg.Table.AllocRun reuses a retired run of the
		// same length before growing).
		first := h.tab.AllocRun(space, gen, h.stamp, k)
		h.fillRun(first, k, n)
		for i := 0; i < k; i++ {
			h.chains[space][gen] = append(h.chains[space][gen], first+i)
		}
		return seg.BaseAddr(first), nil
	}
	idx := h.tab.Alloc(space, gen, h.stamp)
	h.chains[space][gen] = append(h.chains[space][gen], idx)
	c := &h.cur[space][gen]
	c.open(h.tab, idx)
	return c.bump(n)
}

// claimable clamps a request for want more segments to what a bounded
// heap can still commit, and panics out of memory when fewer than need
// are left. Reserved segments (mutator TLAB caches) count toward the
// bound — they are committed at Reserve time, so the check must see
// them or a bounded heap could hand out MaxSegments live segments on
// top of a full cache — but idle reservations are reclaimable: they
// are drained before declaring OOM, so the accounting stays exact and
// a bounded heap can always reach MaxSegments live segments. Caller
// holds allocMu or is the only goroutine running (see
// reclaimReservedLocked).
func (h *Heap) claimable(want, need int, what string) int {
	if h.cfg.MaxSegments == 0 {
		return want
	}
	head := h.cfg.MaxSegments - h.tab.CommittedCount()
	if head < need {
		h.reclaimReservedLocked()
		head = h.cfg.MaxSegments - h.tab.CommittedCount()
	}
	if head < need {
		panic(fmt.Sprintf("heap: out of memory: %d-segment limit reached (%s, %d segments requested)",
			h.cfg.MaxSegments, what, need))
	}
	return min(want, head)
}

// fillRun sets the Fill of the k segments of a large-object run
// holding n words.
func (h *Heap) fillRun(first, k, n int) {
	for i := 0; i < k; i++ {
		s := h.tab.Seg(first + i)
		s.Fill = min(n, seg.Words)
		n -= s.Fill
	}
}

// word / setWord / valueAt are raw accesses without barriers to one
// word at any address, a segment-table walk each; code that touches a
// whole object goes through its window instead.
func (h *Heap) word(addr uint64) uint64       { return h.tab.Word(addr) }
func (h *Heap) setWord(addr, w uint64)        { h.tab.SetWord(addr, w) }
func (h *Heap) valueAt(addr uint64) obj.Value { return obj.Value(h.tab.Word(addr)) }

// window returns the words at addr for writing (seg.Table.Writable):
// at most n, and no further than the end of addr's segment — only a
// large object's words run on past it, into the next of its run.
func (h *Heap) window(addr uint64, n int) []uint64 {
	w := h.tab.Writable(seg.SegIndexOf(addr)).Words[seg.Offset(addr):]
	return w[:min(n, len(w))]
}

// writeCell stores v at addr and maintains the remembered set: any
// pointer cell written in a generation older than 0 is remembered so
// that a collection of younger generations can find old-to-young
// pointers without scanning older generations (the generation-friendly
// property the paper insists on). Immediates need no remembering — the
// generational invariants are about pointers — so the barrier filters
// them before touching the set. isWeakCar marks the cell as a weak
// car, whose referent must be handled by the weak-pair pass rather
// than traced.
// In mutator mode the barrier runs concurrently on many goroutines:
// the remembered-set insert takes its shard's lock and the BarrierHits
// counter is updated atomically, so the barrier itself never races —
// racing stores to the same cell remain the program's responsibility.
func (h *Heap) writeCell(addr uint64, v obj.Value, isWeakCar bool) {
	s := h.tab.Writable(seg.SegIndexOf(addr))
	s.Words[seg.Offset(addr)] = uint64(v)
	if !v.IsPointer() {
		return
	}
	if !h.cfg.UseDirtySet {
		return
	}
	if s.Gen > 0 {
		h.dirtyInsert(addr, isWeakCar)
		atomic.AddUint64(&h.Stats.BarrierHits, 1)
	}
}

// writeGC stores v at addr during a collection, recording a dirty
// entry only when the store creates an old-to-young pointer (for
// example, the collector appending a salvaged young object to a
// guardian tconc living in an older generation, §4).
func (h *Heap) writeGC(addr uint64, v obj.Value) {
	s := h.tab.Writable(seg.SegIndexOf(addr))
	s.Words[seg.Offset(addr)] = uint64(v)
	if !h.cfg.UseDirtySet || !v.IsPointer() {
		return
	}
	if s.Gen > 0 && h.tab.SegOf(v.Addr()).Gen < s.Gen {
		h.dirtyInsert(addr, false)
	}
}

// dirtyInsert records addr in whichever remembered-set representation
// is active: the sharded set, or the map-based test oracle when one is
// enabled (remset_oracle.go). Both give the same sticky-weak dedup
// semantics, which is what makes the map-vs-sharded lockstep oracle
// meaningful.
func (h *Heap) dirtyInsert(addr uint64, weak bool) {
	if h.dirtyMap != nil {
		if cur, ok := h.dirtyMap[addr]; ok {
			if weak && !cur {
				h.dirtyMap[addr] = true
			}
			return
		}
		h.dirtyMap[addr] = weak
		return
	}
	h.rem.insert(addr, weak)
}

// dirtyLookup reports whether addr is remembered, and whether its
// entry is marked weak, in whichever representation is active.
func (h *Heap) dirtyLookup(addr uint64) (weak, ok bool) {
	if h.dirtyMap != nil {
		weak, ok = h.dirtyMap[addr]
		return weak, ok
	}
	return h.rem.lookup(addr)
}

// CollectPending reports whether the generation-0 allocation trigger
// has fired since the last collection.
func (h *Heap) CollectPending() bool { return h.needCollect.Load() }

// Safepoint is the cheap poll for loop back-edges (the Scheme VM calls
// it on every evaluator back-jump): it reports whether the heap wants
// attention — a stop-the-world handshake is in progress, or the
// generation-0 trigger has fired. Legacy single-mutator callers follow
// a true result with Checkpoint; registered mutators use
// Mutator.Safepoint / Mutator.Checkpoint instead, which also park for
// handshakes.
func (h *Heap) Safepoint() bool { return h.spStop.Load() || h.needCollect.Load() }

// SetCollectRequestHandler installs fn to be run at the next
// Checkpoint after a collect request, mirroring Chez Scheme's
// collect-request-handler. The handler is expected to call Collect (or
// CollectAuto) and may then perform arbitrary work — closing dropped
// ports, for example. Passing nil restores the default handler, which
// calls CollectAuto. The handler is a legacy single-mutator facility:
// Mutator.Checkpoint calls CollectAuto directly and does not run it.
func (h *Heap) SetCollectRequestHandler(fn func(*Heap)) { h.handler = fn }

// Checkpoint runs the collect-request handler if a collect request is
// pending. Callers must ensure all live Values are reachable from
// roots before calling. Checkpoint is not reentrant: a request raised
// by the handler's own allocations is deferred until the handler has
// returned, so an allocating handler (guardians exist precisely to
// allow allocation in clean-up code) cannot recurse. In mutator mode,
// use Mutator.Checkpoint from mutator goroutines instead.
func (h *Heap) Checkpoint() {
	if !h.needCollect.Load() || h.inCollect.Load() || h.inHandler {
		return
	}
	h.needCollect.Store(false)
	if h.handler != nil {
		h.inHandler = true
		defer func() { h.inHandler = false }()
		h.handler(h)
		return
	}
	h.CollectAuto()
}

// autoGen advances the collect-request counter and asks the policy
// which generation the next automatic collection should collect
// (radix cadence for the static policies, promoted-word backlog for
// AdaptivePolicy), clamped to the heap's generations. Callers must be
// serialized (legacy mode, or the coordinator of a stopped world).
func (h *Heap) autoGen() int {
	h.autoCount++
	g := h.policy.CollectGen(h.autoCount, h.MaxGeneration())
	if g < 0 {
		g = 0
	}
	if g > h.MaxGeneration() {
		g = h.MaxGeneration()
	}
	return g
}

// CollectAuto collects the generation chosen by the radix policy.
// Like Collect, it returns the collection's report, and like Collect
// it runs the safepoint handshake when mutators are registered (the
// radix policy then advances under the stopped world, so concurrent
// automatic requests never race on the counter).
func (h *Heap) CollectAuto() *CollectionReport {
	return h.collectAs(nil, 0, true)
}

// Generation returns the generation a value currently resides in, or
// -1 for immediates.
func (h *Heap) Generation(v obj.Value) int {
	if !v.IsPointer() {
		return -1
	}
	return h.tab.SegOf(v.Addr()).Gen
}

// AddressOf returns a value's identity for eq hashing: the current
// word address for pointers (which changes when the collector moves
// the object — the motivation for transport guardians, §3), and the
// value itself for immediates.
func (h *Heap) AddressOf(v obj.Value) uint64 {
	if v.IsPointer() {
		return v.Addr()
	}
	return uint64(v)
}

// LiveWords returns the number of words currently allocated across all
// in-use segments — the heap residency figure used by experiment E3.
func (h *Heap) LiveWords() uint64 {
	var n uint64
	for i := 0; i < h.tab.Len(); i++ {
		s := h.tab.Seg(i)
		if s.InUse {
			n += uint64(s.Fill)
		}
	}
	return n
}

// SegmentsInUse returns the number of live segments.
func (h *Heap) SegmentsInUse() int { return h.tab.InUseCount() }

// DirtyCount returns the deduplicated size of the remembered set: the
// number of distinct cell addresses currently remembered, however many
// times each was written. It is valid at any time, including from
// post-collect hooks, where it reports the retired-and-reinserted set
// the *next* collection's dirty scan will start from (entries are
// retired during the dirty-scan phase and weak cells re-enter during
// the weak pass, which completes before hooks run). The contract is
// pinned down by TestDirtyCountContract.
func (h *Heap) DirtyCount() int {
	if h.dirtyMap != nil {
		return len(h.dirtyMap)
	}
	return h.rem.count()
}

// SetAllocForbidden toggles a mode in which any allocation panics. It
// models the restriction that finalization thunks run as part of the
// garbage-collection process must not cause heap allocation — the
// limitation of register-for-finalization mechanisms that guardians
// remove (§2). The baseline package uses it while running such thunks.
func (h *Heap) SetAllocForbidden(forbid bool) { h.allocForbidden = forbid }

// Eqv implements Scheme eqv?: pointer identity for heap objects and
// value identity for immediates, except that flonums compare by their
// float bits.
func (h *Heap) Eqv(a, b obj.Value) bool {
	if a == b {
		return true
	}
	if h.IsKind(a, obj.KFlonum) && h.IsKind(b, obj.KFlonum) {
		return h.word(a.Addr()+1) == h.word(b.Addr()+1)
	}
	return false
}
