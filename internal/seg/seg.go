// Package seg implements the segmented memory system described in §4
// of the paper: the heap is structured as a set of fixed-size segments,
// each belonging to a specific space and generation, with the space and
// generation of every segment recorded in a segment information table.
// Segments comprising a space or generation are generally not
// contiguous; the heap keeps each space and generation's chain as a
// list of segment indices.
package seg

import (
	"fmt"
	"sync"
)

// Words is the number of 64-bit words per segment. The paper's
// segments are 4 KB; at 8 bytes per word that is 512 words.
const Words = 512

// Space identifies the characteristic of the objects a segment holds.
// Segregating objects by space is what lets the collector treat weak
// pairs specially (they live in SpaceWeak) and skip sweeping pointers
// in SpaceData entirely.
type Space uint8

const (
	SpacePair Space = iota // ordinary pairs
	SpaceWeak              // weak pairs: car is a weak pointer
	SpaceObj               // header-prefixed objects containing Values
	SpaceData              // strings, bytevectors, flonums: no pointers
	NumSpaces
)

var spaceNames = [NumSpaces]string{"pair", "weak", "obj", "data"}

func (s Space) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// None marks the absence of a segment: a closed cursor's index.
const None = -1

// Info is a segment's hot facts packed into one entry of the table's
// info array: its space (the InfoSpace bits), whether it is from-space
// of the collection in progress (InfoFrom), whether its words still
// alias a template's array (InfoShared), and its generation (the bits
// above). The collector's questions about a referent — is it subject to
// this collection, in which space, must its words be copied before a
// store — are one load of it. A free slot's entry is zero.
type Info uint16

const (
	InfoSpace  Info = 1<<2 - 1 // the Space bits
	InfoFrom   Info = 1 << 2   // from-space of the collection in progress
	InfoShared Info = 1 << 3   // words alias a template array (copy-on-write)

	infoGenShift = 4
)

// Every Space fits the InfoSpace bits (a compile-time check).
const _ = InfoSpace + 1 - Info(NumSpaces)

// MaxGenerations bounds the generation an Info can hold.
const MaxGenerations = 1 << (16 - infoGenShift)

// MakeInfo returns the entry of an in-use, private segment of the given
// space and generation that is not from-space.
func MakeInfo(space Space, gen int) Info { return Info(space) | Info(gen)<<infoGenShift }

// Space returns the segment's space.
func (i Info) Space() Space { return Space(i & InfoSpace) }

// Gen returns the segment's generation.
func (i Info) Gen() int { return int(i >> infoGenShift) }

// Mark is a segment's remembered-set mark: Clean, or the youngest
// generation the segment's words may point into — the fact the paper's
// collector keeps beside the segment information table so that a
// collection of generations 0..g scans, of the older generations, only
// the segments marked g or younger. A mark holds generation gen as
// gen+1, so that a free slot's zero entry is Clean; generations past
// maxMarkGen are held as maxMarkGen, which only makes the mark younger
// than it need be: a collection scans the segment more often, never
// less.
type Mark uint8

// Clean is the mark of a segment whose words point into no younger
// generation.
const Clean Mark = 0

const maxMarkGen = 1<<8 - 2

// MarkOf returns the mark of a segment whose youngest referent lies in
// generation gen.
func MarkOf(gen int) Mark { return Mark(min(gen, maxMarkGen) + 1) }

// Gen returns the youngest generation the mark lets the segment point
// into: MaxGenerations, past every generation, for Clean.
func (m Mark) Gen() int {
	if m == Clean {
		return MaxGenerations
	}
	return int(m) - 1
}

// Segment is a segment's cold facts, those the collector's per-word
// paths do not read: a descriptor is 24 bytes and a chunk of the table
// 1.5 KiB (seg_test.go pins both).
type Segment struct {
	// Stamp records the collection stamp current when the segment was
	// (re)allocated. The collector uses it to recognize to-space
	// segments created during the current collection, which the
	// conservative scan of older generations skips.
	Stamp uint64
	// Fill is the number of words allocated in this segment. The
	// collector uses it to iterate objects within a segment and to
	// compute residency statistics.
	Fill int
	// Cont marks a continuation segment of a large object that spans
	// several contiguous segments; only the first segment of the run
	// appears as an object start.
	Cont bool
}

// Descriptors are stored in fixed-size chunks so that a *Segment
// returned by Seg never moves when the table grows: the allocation
// cursors keep the *Segment of their open segment. A chunk is made
// when the first of its slots is put in use, so the free slots of a
// table built by NewTableFromSegs cost only their dense entries.
const (
	chunkBits = 6 // 64 segments (256 KB of heap) per chunk
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

type segChunk [chunkSize]Segment

// PoolCap bounds a Pool: 64 arrays, 256 KB parked at most. A running
// session cycles through its nursery's worth of arrays (the server's
// sessions trigger at 8 segments) between two collections, and only as
// many sessions run at once as the host has workers, so a few dozen
// arrays cover the swing; anything above the cap goes back to the Go
// collector.
const PoolCap = 64

// Pool is a bounded LIFO of zeroed segment word arrays shared by the
// tables of one clone family (NewTableFromSegs): a table hands the
// array of every segment it retires with Free to the pool and takes
// one back when it next needs storage, so a parked heap holds arrays
// only for the segments it has in use, and the heap that runs next
// gets the arrays the last one just let go of. Every pooled array is
// all zero. Safe for concurrent use; the zero value is ready.
type Pool struct {
	mu   sync.Mutex
	free []*[Words]uint64
}

// get returns a zeroed array, or nil when the pool is empty.
func (p *Pool) get() *[Words]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	w := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return w
}

// put parks the zeroed array w; a full pool drops it instead.
func (p *Pool) put(w *[Words]uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < PoolCap {
		p.free = append(p.free, w)
	}
}

// Len returns the number of arrays parked in the pool.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Table is the segment information table plus the free lists of
// retired segments. The zero value is ready to use.
//
// The facts the collector and the barrier read per word live in dense
// arrays indexed by segment number: words, the segment's storage (nil
// exactly when the slot is free), info (see Info) and mark (see Mark).
// So "is this referent in from-space?" is one indexed load, and
// reaching a word is a second. The cold facts are in the Segment
// descriptors.
//
// Concurrency contract: a table belongs to one heap, and a heap is used
// by one goroutine at a time (heap.Mutator hands it from one to the
// next), so no method synchronizes. The exception is the Pool a clone
// family shares, which locks itself.
type Table struct {
	words  []*[Words]uint64
	info   []Info
	mark   []Mark
	chunks []*segChunk

	// The free slots, on exactly one list each, claimed in this order:
	// free holds the slots Free retired (a LIFO); holes the slots a
	// table built by NewTableFromSegs started with free, as ascending
	// ranges, nholes slots in all (a range costs what a hole of one
	// slot does); singles the slots FreeRun retired singly and the
	// pooled runs claim broke up.
	free    []int
	holes   []span
	nholes  int
	singles []int

	// runPool pools retired large-object runs by size class: runPool[k]
	// holds the head indices of free contiguous k-segment runs, so
	// AllocRun can pop a same-length run instead of growing the table
	// — without pooling, large-object churn grows the table without
	// bound, since free single segments are never adjacent. The pools
	// are plain index free lists (push on FreeRun, pop on AllocRun):
	// steady-state large allocation performs no Go allocations; pooled
	// counts the segments parked across all classes. The slice is
	// indexed by k and grown (rarely) to the largest class seen; class
	// 0/1 are unused.
	runPool [][]int
	pooled  int

	// spare holds the word arrays of retired segments, their words
	// stale: the next segment put in use takes one and clears it. Free
	// in a table with a pool gives its array to the pool instead.
	spare []*[Words]uint64

	// Copy-on-write clone state (NewTableFromSegs with shared=true):
	// tpl is the template records the table was built from, whose word
	// arrays the segments with InfoShared set still alias; cowShared
	// counts those segments. Segments created after the clone are never
	// shared.
	tpl       []TemplateSeg
	cowShared int
	cowCopies uint64

	// pool, when non-nil, is where Free sends retired word arrays and
	// where fresh storage comes from before new (see Pool).
	pool *Pool
}

// span is a range lo..hi-1 of free slots.
type span struct{ lo, hi int }

// newWords returns a zeroed word array: a spare one cleared, one from
// the pool, or a fresh one.
func (t *Table) newWords() *[Words]uint64 {
	if n := len(t.spare); n > 0 {
		w := t.spare[n-1]
		t.spare[n-1] = nil
		t.spare = t.spare[:n-1]
		clear(w[:])
		return w
	}
	if t.pool != nil {
		if w := t.pool.get(); w != nil {
			return w
		}
	}
	return new([Words]uint64)
}

// TemplateSeg describes one in-use segment for NewTableFromSegs: its
// slot index, its words (of length seg.Words) and its table metadata,
// remembered-set mark included.
type TemplateSeg struct {
	Index int
	Words []uint64
	Space Space
	Gen   int
	Mark  Mark
	Cont  bool
	Fill  int
	Stamp uint64
}

// NewTableFromSegs builds a table of n slots whose in-use segments are
// segs, in strictly ascending Index order; every other slot is free.
// With shared=true the segments alias the provided word arrays
// copy-on-write (the arrays must then be treated as immutable by the
// caller for the table's lifetime); with shared=false the table takes
// ownership of the arrays outright. A non-nil pool makes the table one
// of a clone family that passes retired word arrays around (see Pool).
// A free slot costs only its entries in the dense arrays, and free
// slots are claimed lowest index first, as a freshly grown table's
// are. Panics if a record's Words is not exactly seg.Words long, or its
// Index is out of order or range.
func NewTableFromSegs(n int, segs []TemplateSeg, shared bool, pool *Pool) *Table {
	// The dense arrays get room up to the end of the last chunk, so a
	// clone that grows a little past its template does not reallocate
	// them.
	room := (n + chunkMask) &^ chunkMask
	t := &Table{
		words:  make([]*[Words]uint64, n, room),
		info:   make([]Info, n, room),
		mark:   make([]Mark, n, room),
		chunks: make([]*segChunk, room>>chunkBits),
		holes:  make([]span, 0, len(segs)+1),
		pool:   pool,
	}
	next := 0 // the lowest slot not yet placed
	for i := range segs {
		ts := &segs[i]
		if ts.Index < next || ts.Index >= n || len(ts.Words) != Words || uint(ts.Gen) >= MaxGenerations {
			panic(fmt.Sprintf("seg: NewTableFromSegs: bad record %d (index %d of %d slots, %d words, gen %d)",
				i, ts.Index, n, len(ts.Words), ts.Gen))
		}
		t.addHoles(next, ts.Index)
		t.words[ts.Index] = (*[Words]uint64)(ts.Words)
		t.info[ts.Index] = MakeInfo(ts.Space, ts.Gen)
		if shared {
			t.info[ts.Index] |= InfoShared
		}
		t.mark[ts.Index] = ts.Mark
		*t.slot(ts.Index) = Segment{Stamp: ts.Stamp, Fill: ts.Fill, Cont: ts.Cont}
		next = ts.Index + 1
	}
	t.addHoles(next, n)
	if shared {
		t.tpl, t.cowShared = segs, len(segs)
	}
	return t
}

// addHoles adds the free slots lo..hi-1 to the table's holes.
func (t *Table) addHoles(lo, hi int) {
	if lo < hi {
		t.holes = append(t.holes, span{lo, hi})
		t.nholes += hi - lo
	}
}

// SharedCount returns the number of segments still aliasing template
// word arrays.
func (t *Table) SharedCount() int { return t.cowShared }

// COWCopies returns the cumulative number of segments privatized by
// copy-on-write faults over the table's lifetime.
func (t *Table) COWCopies() uint64 { return t.cowCopies }

// privatize replaces segment idx's shared template words with a private
// copy and clears its shared bit.
func (t *Table) privatize(idx int) {
	w := t.newWords()
	*w = *t.words[idx]
	t.words[idx] = w
	t.info[idx] &^= InfoShared
	t.cowShared--
	t.cowCopies++
}

// grow appends a free slot to the table and returns its index.
func (t *Table) grow() int {
	idx := len(t.words)
	t.words = append(t.words, nil)
	t.info = append(t.info, 0)
	t.mark = append(t.mark, Clean)
	if idx>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, nil)
	}
	return idx
}

// slot returns the descriptor of slot idx, making its chunk if it has
// none yet.
func (t *Table) slot(idx int) *Segment {
	c := t.chunks[idx>>chunkBits]
	if c == nil {
		c = new(segChunk)
		t.chunks[idx>>chunkBits] = c
	}
	return &c[idx&chunkMask]
}

// initSeg puts the free slot idx in use, with zeroed words.
func (t *Table) initSeg(idx int, space Space, gen int, stamp uint64, cont bool) {
	if uint(gen) >= MaxGenerations {
		panic(fmt.Sprintf("seg: generation %d out of range", gen))
	}
	t.words[idx] = t.newWords()
	t.info[idx] = MakeInfo(space, gen)
	*t.slot(idx) = Segment{Stamp: stamp, Cont: cont}
}

// claim returns a free slot index for a single segment: one Free
// retired, then a hole, then one FreeRun retired, then one of a pooled
// large-object run broken up into singles, then a new slot. Breaking
// up a pooled run before growing keeps the bounded-heap guarantee
// exact: a heap full of pooled runs can still hand out single segments
// up to MaxSegments.
func (t *Table) claim() int {
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		return idx
	}
	if len(t.holes) > 0 {
		h := &t.holes[0]
		idx := h.lo
		if h.lo++; h.lo == h.hi {
			t.holes = t.holes[1:]
		}
		t.nholes--
		return idx
	}
	if t.pooled > 0 && len(t.singles) == 0 {
		// Smallest class first (deterministic — no map iteration), its
		// segments pushed in reverse so the run's lowest index is
		// claimed first, matching Alloc's order on a grown table.
		for k := range t.runPool {
			lst := t.runPool[k]
			if len(lst) == 0 {
				continue
			}
			head := lst[len(lst)-1]
			t.runPool[k] = lst[:len(lst)-1]
			t.pooled -= k
			for i := k - 1; i >= 0; i-- {
				t.Seg(head + i).Cont = false // broken up into singles
				t.singles = append(t.singles, head+i)
			}
			break
		}
	}
	if n := len(t.singles); n > 0 {
		idx := t.singles[n-1]
		t.singles = t.singles[:n-1]
		return idx
	}
	return t.grow()
}

// Alloc returns the index of a fresh segment assigned to the given
// space and generation, reusing a retired segment when one exists.
func (t *Table) Alloc(space Space, gen int, stamp uint64) int {
	idx := t.claim()
	t.initSeg(idx, space, gen, stamp, false)
	return idx
}

// AllocRun returns k contiguous segments for a large object: a pooled
// run of exactly k segments when one has been retired (FreeRun), or k
// brand-new segments appended to the table. Runs never come from the
// single-segment free lists because free singles are not guaranteed to
// be adjacent. The first segment of the run is an ordinary
// object-start segment; the rest are marked as continuations.
func (t *Table) AllocRun(space Space, gen int, stamp uint64, k int) int {
	first := -1
	if k < len(t.runPool) {
		if lst := t.runPool[k]; len(lst) > 0 {
			first = lst[len(lst)-1]
			t.runPool[k] = lst[:len(lst)-1]
			t.pooled -= k
		}
	}
	if first < 0 {
		first = len(t.words)
		for range k {
			t.grow()
		}
	}
	for i := 0; i < k; i++ {
		t.initSeg(first+i, space, gen, stamp, i > 0)
	}
	return first
}

// RunLen returns the length in segments of the object run starting at
// head: 1 for an ordinary segment, k for the head of a k-segment
// large-object run. A continuation segment's run head is the nearest
// non-continuation segment below it, so a non-continuation segment
// immediately followed by in-use continuations is exactly a run head.
// head must be in use and not itself a continuation.
func (t *Table) RunLen(head int) int {
	k := 1
	for head+k < len(t.words) && t.words[head+k] != nil && t.Seg(head+k).Cont {
		k++
	}
	return k
}

// retire empties the in-use slot idx: a template alias is dropped (the
// template's array is never written), and an own array goes to the
// pool zeroed when toPool and the table has one, to spare otherwise.
// Its info entry goes to zero and its mark to Clean.
func (t *Table) retire(idx int, toPool bool) {
	w := t.words[idx]
	switch {
	case w == nil:
		panic(fmt.Sprintf("seg: double free of segment %d", idx))
	case t.info[idx]&InfoShared != 0:
		t.cowShared--
	case toPool && t.pool != nil:
		clear(w[:])
		t.pool.put(w)
	default:
		t.spare = append(t.spare, w)
	}
	t.words[idx], t.info[idx], t.mark[idx] = nil, 0, Clean
	t.Seg(idx).Fill = 0
}

// FreeRun retires the whole object run starting at head — the head
// segment plus its continuations (RunLen) — in one call. A single
// segment (RunLen 1) goes to the singles list; a longer run is pooled
// intact by size class for reuse by a same-length AllocRun, keeping
// its contiguity (a run broken into singles could never be
// reassembled, so large-object churn would grow the table without
// bound). The arrays stay with the table, unzeroed, for whichever
// segment is put in use next. Returns the run length.
func (t *Table) FreeRun(head int) int {
	k := t.RunLen(head)
	for i := 0; i < k; i++ {
		t.retire(head+i, false)
		// Continuations keep their Cont mark while pooled: the run
		// stays assembled, and callers freeing a mixed from-space list
		// can recognize a continuation whose head's FreeRun already
		// covered it.
		t.Seg(head + i).Cont = i > 0
	}
	if k == 1 {
		t.singles = append(t.singles, head)
		return 1
	}
	for len(t.runPool) <= k {
		t.runPool = append(t.runPool, nil)
	}
	t.runPool[k] = append(t.runPool[k], head)
	t.pooled += k
	return k
}

// Free retires segment idx onto the free list. A dangling pointer into
// it then meets a nil word entry and panics, which keeps collector bugs
// loud. A table with a pool gives the array to the pool zeroed.
func (t *Table) Free(idx int) {
	t.retire(idx, true)
	t.Seg(idx).Cont = false
	t.free = append(t.free, idx)
}

// Seg returns the descriptor of segment idx, which is or has been in
// use. The pointer is stable: it remains valid as the table grows.
func (t *Table) Seg(idx int) *Segment {
	return &t.chunks[idx>>chunkBits][idx&chunkMask]
}

// Info returns segment idx's packed hot facts (zero for a free slot).
func (t *Table) Info(idx int) Info { return t.info[idx] }

// Infos returns the info array itself, indexed by segment number, for
// a loop that tests many referents: the slice header is loaded once
// for the loop instead of once per Info. It is for reading only, and
// valid until the table grows — a claim of a new slot (Alloc, AllocRun)
// may move the array — so a loop that can allocate segments re-takes
// it after each call that might. Entries changed in place (MarkFrom,
// privatization, Free) show through it.
func (t *Table) Infos() []Info { return t.info }

// Mark returns segment idx's remembered-set mark (Clean for a free
// slot).
func (t *Table) Mark(idx int) Mark { return t.mark[idx] }

// SetMark sets segment idx's mark: the dirty scan's re-mark, after it
// has seen every word of the segment.
func (t *Table) SetMark(idx int, m Mark) { t.mark[idx] = m }

// LowerMark makes segment idx's mark at least as young as gen — the
// write barrier's one byte min — and reports whether the mark was
// Clean before, that is, whether the segment has just become dirty.
func (t *Table) LowerMark(idx, gen int) (wasClean bool) {
	m := t.mark[idx]
	if uint(m)-1 <= uint(gen) { // Clean wraps past every generation
		return false
	}
	t.mark[idx] = MarkOf(gen)
	return m == Clean
}

// InUse reports whether segment idx is in use.
func (t *Table) InUse(idx int) bool { return t.words[idx] != nil }

// Words returns segment idx's words for reading (nil for a free slot).
// A segment aliasing a template array is read in place; a store goes
// through Writable.
func (t *Table) Words(idx int) *[Words]uint64 { return t.words[idx] }

// MarkFrom flags segment idx as from-space of the collection in
// progress. Free and FreeRun clear the flag with the rest of the entry.
func (t *Table) MarkFrom(idx int) { t.info[idx] |= InfoFrom }

// Plant overwrites slot idx's dense entries with w and inf, bypassing
// every list and count: a test hook that corrupts a table the way a
// bookkeeping bug would, for Check and the heap's Verify to catch.
func (t *Table) Plant(idx int, w *[Words]uint64, inf Info) {
	t.words[idx], t.info[idx] = w, inf
}

// Len returns the total number of segment slots.
func (t *Table) Len() int { return len(t.words) }

// FreeCount returns the number of free slots (retired, holes, and
// pooled large-object runs alike).
func (t *Table) FreeCount() int { return len(t.free) + t.nholes + len(t.singles) + t.pooled }

// PooledRunSegments returns the number of segments currently parked in
// the large-object run pools.
func (t *Table) PooledRunSegments() int { return t.pooled }

// InUseCount returns the number of live segments: pooled large-object
// runs are reclaimable (claim breaks them up before growing the table)
// and do not count.
func (t *Table) InUseCount() int { return len(t.words) - t.FreeCount() }

// Check reports through report every way the table disagrees with
// itself: a free-list entry out of range, on two lists, or with a word
// array, a non-zero info entry or a mark; slots without words that the free
// lists do not account for; an in-use slot without a descriptor; a
// shared bit that is not set exactly where a slot's words are its
// template record's array; and a count (FreeCount's parts, SharedCount)
// that does not match.
func (t *Table) Check(report func(format string, args ...any)) {
	n := len(t.words)
	if len(t.info) != n || len(t.mark) != n || len(t.chunks) != (n+chunkMask)>>chunkBits {
		report("seg: %d word entries, %d info entries, %d marks, %d chunks", n, len(t.info), len(t.mark), len(t.chunks))
		return
	}
	listed := make([]uint64, (n+63)/64)
	nlisted := 0
	list := func(lo, hi int, which string) {
		if lo < 0 || hi > n || lo >= hi {
			report("seg: %s list holds slots %d..%d of %d", which, lo, hi-1, n)
			return
		}
		for idx := lo; idx < hi; idx++ {
			if listed[idx>>6]&(1<<(idx&63)) != 0 {
				report("seg: slot %d is on two free lists", idx)
				continue
			}
			listed[idx>>6] |= 1 << (idx & 63)
			nlisted++
			if t.words[idx] != nil {
				report("seg: free slot %d (%s list) has a word array", idx, which)
			}
			if t.info[idx] != 0 {
				report("seg: free slot %d (%s list) has info %#x", idx, which, uint16(t.info[idx]))
			}
			if t.mark[idx] != Clean {
				report("seg: free slot %d (%s list) is marked %d", idx, which, t.mark[idx].Gen())
			}
		}
	}
	for _, idx := range t.free {
		list(idx, idx+1, "free")
	}
	for _, h := range t.holes {
		list(h.lo, h.hi, "hole")
	}
	for _, idx := range t.singles {
		list(idx, idx+1, "singles")
	}
	for k, heads := range t.runPool {
		for _, head := range heads {
			list(head, head+k, "run pool")
		}
	}
	if nlisted != t.FreeCount() {
		report("seg: %d slots on the free lists but FreeCount is %d", nlisted, t.FreeCount())
	}
	// Every listed slot has no words, and none is listed twice: so the
	// lists hold every slot without words exactly when the counts match.
	nfree, shared, ti := 0, 0, 0
	for idx, w := range t.words {
		if w == nil {
			nfree++
			continue
		}
		if t.chunks[idx>>chunkBits] == nil {
			report("seg: in-use slot %d has no descriptor", idx)
		}
		for ti < len(t.tpl) && t.tpl[ti].Index < idx {
			ti++
		}
		aliases := ti < len(t.tpl) && t.tpl[ti].Index == idx && w == (*[Words]uint64)(t.tpl[ti].Words)
		if sh := t.info[idx]&InfoShared != 0; sh != aliases {
			report("seg: slot %d: shared bit %v, aliases its template array %v", idx, sh, aliases)
		}
		if aliases {
			shared++
		}
	}
	if nfree != nlisted {
		report("seg: %d slots have no words but %d are on the free lists", nfree, nlisted)
	}
	if shared != t.cowShared {
		report("seg: %d slots alias the template but SharedCount is %d", shared, t.cowShared)
	}
}

// SegIndexOf returns the index of the segment containing the word
// address addr.
func SegIndexOf(addr uint64) int { return int(addr / Words) }

// Offset returns addr's offset within its segment.
func Offset(addr uint64) int { return int(addr % Words) }

// BaseAddr returns the word address of the first word of segment idx.
func BaseAddr(idx int) uint64 { return uint64(idx) * Words }

// Window returns the words from addr to the end of its segment, for
// reading: one directory load however many of them the caller then
// reads. Reads never fault — a segment aliasing a template array is
// read in place.
func (t *Table) Window(addr uint64) []uint64 {
	return t.words[addr/Words][addr%Words:]
}

// Writable returns segment idx's words safe to store through: a
// segment that still aliases a template array (copy-on-write) is
// privatized first. This is the one place the privatize-before-first-
// write rule lives — SetWord is expressed on it, and callers that
// write several words of one segment (a freshly copied object, a swept
// object's fields) call it once and index the array. Words read before
// the call may be the template's: privatize replaces the array.
func (t *Table) Writable(idx int) *[Words]uint64 {
	if t.info[idx]&InfoShared != 0 {
		t.privatize(idx)
	}
	return t.words[idx]
}

// Word returns the heap word at addr. Word and SetWord are for one
// word at an arbitrary address; code that touches a whole
// object resolves its segment once (Window, Writable) instead.
func (t *Table) Word(addr uint64) uint64 { return t.words[addr/Words][addr%Words] }

// SetWord stores w at addr (copy-on-write: see Writable).
func (t *Table) SetWord(addr uint64, w uint64) {
	t.Writable(int(addr / Words))[addr%Words] = w
}
