// Package seg implements the segmented memory system described in §4
// of the paper: the heap is structured as a set of fixed-size segments,
// each belonging to a specific space and generation, with the space and
// generation of every segment recorded in a segment information table.
// Segments comprising a space or generation are generally not
// contiguous; chains of segments are linked through the table.
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

// None marks the absence of a segment in chain links.
const None = -1

// Segment is one entry of the segment information table together with
// its backing storage. The one-byte fields share a word, so a
// descriptor is 64 bytes and a chunk of the table 4 KiB (seg_test.go
// pins both).
type Segment struct {
	Words []uint64 // backing storage, len == seg.Words
	Space Space
	InUse bool
	// Cont marks a continuation segment of a large object that spans
	// several contiguous segments; only the first segment of the run
	// appears as an object start.
	Cont bool
	Gen  int
	// Stamp records the collection stamp current when the segment was
	// (re)allocated. The collector uses it to recognize to-space
	// segments created during the current collection, which the
	// conservative scan of older generations skips.
	Stamp uint64
	// Next links segments belonging to the same (space, generation)
	// chain, or None.
	Next int
	// Fill is the number of words allocated in this segment. The
	// collector uses it to iterate objects within a segment and to
	// compute residency statistics.
	Fill int
}

// Segments are stored in fixed-size chunks so that a *Segment returned
// by Seg, and the backing word arrays, never move when the table grows:
// the allocation cursors keep the *Segment of their open segment.
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
	free [][]uint64
}

// get returns a zeroed array, or nil when the pool is empty.
func (p *Pool) get() []uint64 {
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
func (p *Pool) put(w []uint64) {
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

// Table is the segment information table plus the free list of retired
// segments. The zero value is ready to use.
//
// Concurrency contract: a table belongs to one heap, and a heap is used
// by one goroutine at a time (heap.Mutator hands it from one to the
// next), so no method synchronizes. The exception is the Pool a clone
// family shares, which locks itself.
type Table struct {
	chunks []*segChunk
	nseg   int
	free   []int
	// lazy holds segments retired with their words unzeroed (single
	// segments from FreeRun, and pooled runs broken up for reuse):
	// reusable like free ones, but their words are stale and are
	// zeroed only when claimed.
	lazy []int

	// runPool pools retired large-object runs by size class: runPool[k]
	// holds the head indices of free contiguous k-segment runs, so
	// AllocRun can pop a same-length run instead of growing the table
	// — without pooling, large-object churn grows the table without
	// bound, since free single segments are never adjacent. The pools
	// are plain index free lists (push on FreeRun, pop on AllocRun):
	// steady-state large allocation performs no Go allocations. Pooled
	// words are stale and are zeroed when the run
	// is reused; pooled counts the segments parked across all classes.
	// The slice is indexed by k and grown (rarely) to the largest
	// class seen; class 0/1 are unused.
	runPool [][]int
	pooled  int

	// Copy-on-write clone state (NewTableFromSegs with shared=true).
	// cowBits has one bit per segment index covered at clone time; a set
	// bit means the segment's Words slice aliases an immutable template
	// array and must be privatized (copied) before its first write. The
	// bitmap is nil in ordinary tables and becomes nil again once the
	// last shared segment is privatized or freed, so the write-path
	// check collapses to one nil test in the common case. Segments
	// created after the clone lie beyond the bitmap and are never
	// shared.
	cowBits   []uint64
	cowShared int
	cowCopies uint64

	// pool, when non-nil, is where Free sends retired word arrays and
	// where fresh storage comes from before make (see Pool).
	pool *Pool
}

// newWords returns a zeroed word array: from the pool when the table
// has one with an array parked, otherwise freshly made.
func (t *Table) newWords() []uint64 {
	if t.pool != nil {
		if w := t.pool.get(); w != nil {
			return w
		}
	}
	return make([]uint64, Words)
}

// TemplateSeg describes one segment slot for NewTableFromSegs: either a
// populated segment (Words of length seg.Words plus its table metadata)
// or a free slot (Words == nil, other fields ignored).
type TemplateSeg struct {
	Words []uint64
	Space Space
	Gen   int
	Cont  bool
	Fill  int
	Stamp uint64
}

// NewTableFromSegs builds a table whose segment slots mirror segs by
// index: entries with non-nil Words become in-use segments, entries
// with nil Words become free slots. With shared=true the in-use
// segments alias the provided word arrays copy-on-write (the arrays
// must then be treated as immutable by the caller for the table's
// lifetime); with shared=false the table takes ownership of the arrays
// outright. A non-nil pool makes the table one of a clone family that
// passes retired word arrays around (see Pool). Chain links (Next) are
// left as None — the heap rebuilds its chains from its own segment
// walk. Panics if a populated entry's Words is not exactly seg.Words
// long.
func NewTableFromSegs(segs []TemplateSeg, shared bool, pool *Pool) *Table {
	t := &Table{pool: pool}
	for t.nseg < len(segs) {
		t.grow()
		t.nseg++
	}
	nshared := 0
	var bits []uint64
	if shared {
		bits = make([]uint64, (len(segs)+63)/64)
	}
	for i := range segs {
		ts := &segs[i]
		s := t.Seg(i)
		if ts.Words == nil {
			continue // free slot, collected below
		}
		if len(ts.Words) != Words {
			panic(fmt.Sprintf("seg: NewTableFromSegs: segment %d has %d words, want %d", i, len(ts.Words), Words))
		}
		s.Words = ts.Words
		s.Space = ts.Space
		s.Gen = ts.Gen
		s.InUse = true
		s.Stamp = ts.Stamp
		s.Next = None
		s.Cont = ts.Cont
		s.Fill = ts.Fill
		if shared {
			bits[i>>6] |= 1 << (i & 63)
			nshared++
		}
	}
	// Free slots in reverse index order so claim (which pops from the
	// end) reuses the lowest index first, matching Alloc's behavior on
	// a freshly grown table.
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].Words == nil {
			t.free = append(t.free, i)
		}
	}
	if nshared > 0 {
		t.cowBits = bits
		t.cowShared = nshared
	}
	return t
}

// isShared reports whether segment idx currently aliases a template
// word array.
func (t *Table) isShared(idx int) bool {
	return idx>>6 < len(t.cowBits) && t.cowBits[idx>>6]&(1<<(idx&63)) != 0
}

// IsShared reports whether segment idx still aliases an immutable
// template word array (copy-on-write, not yet privatized).
func (t *Table) IsShared(idx int) bool { return t.isShared(idx) }

// SharedCount returns the number of segments still aliasing template
// word arrays.
func (t *Table) SharedCount() int { return t.cowShared }

// COWCopies returns the cumulative number of segments privatized by
// copy-on-write faults over the table's lifetime.
func (t *Table) COWCopies() uint64 { return t.cowCopies }

// privatize replaces segment idx's shared template words with a private
// copy and clears its copy-on-write bit. Dropping the bitmap when the
// last shared segment goes private removes the write-path bit test
// entirely.
func (t *Table) privatize(idx int) {
	s := t.Seg(idx)
	w := t.newWords()
	copy(w, s.Words)
	s.Words = w
	t.clearShared(idx)
	t.cowCopies++
}

// clearShared clears segment idx's copy-on-write bit and retires the
// bitmap when it was the last one.
func (t *Table) clearShared(idx int) {
	t.cowBits[idx>>6] &^= 1 << (idx & 63)
	t.cowShared--
	if t.cowShared == 0 {
		t.cowBits = nil
	}
}

// grow ensures the table has room for segment index t.nseg.
func (t *Table) grow() {
	if t.nseg>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, new(segChunk))
	}
}

// initSeg prepares the fresh or recycled segment idx for use.
func (t *Table) initSeg(idx int, space Space, gen int, stamp uint64, cont bool) *Segment {
	s := t.Seg(idx)
	if s.Words == nil {
		s.Words = t.newWords()
	}
	s.Space = space
	s.Gen = gen
	s.InUse = true
	s.Stamp = stamp
	s.Next = None
	s.Cont = cont
	s.Fill = 0
	return s
}

// claim returns a reusable segment index with zeroed words (or a
// brand-new index whose words initSeg will materialize):
// eagerly-freed segments first, then lazily-freed ones — paying their
// deferred zeroing here — then pooled large-object runs broken up into
// singles, then fresh table growth. Breaking up a pooled run before
// growing keeps the bounded-heap guarantee exact: a heap full of
// pooled runs can still hand out single segments up to MaxSegments.
func (t *Table) claim() int {
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		return idx
	}
	if n := len(t.lazy); n > 0 {
		idx := t.lazy[n-1]
		t.lazy = t.lazy[:n-1]
		clear(t.Seg(idx).Words)
		return idx
	}
	if t.pooled > 0 {
		// Smallest class first (deterministic — no map iteration), its
		// segments pushed in reverse so the run's lowest index is
		// claimed first, matching Alloc's order on a grown table.
		// Pooled words are stale, so the segments join the lazy list.
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
				t.lazy = append(t.lazy, head+i)
			}
			idx := t.lazy[len(t.lazy)-1]
			t.lazy = t.lazy[:len(t.lazy)-1]
			clear(t.Seg(idx).Words) // nil-safe: COW-dropped words rematerialize in initSeg
			return idx
		}
	}
	t.grow()
	idx := t.nseg
	t.nseg++
	return idx
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
// single-segment free list because free singles are not guaranteed to
// be adjacent. The first segment of the run is an ordinary
// object-start segment; the rest are marked as continuations. Pooled
// words are stale and are zeroed here (the large-allocation analogue
// of the lazy list's deferred clear).
func (t *Table) AllocRun(space Space, gen int, stamp uint64, k int) int {
	if k < len(t.runPool) {
		if lst := t.runPool[k]; len(lst) > 0 {
			head := lst[len(lst)-1]
			t.runPool[k] = lst[:len(lst)-1]
			t.pooled -= k
			for i := 0; i < k; i++ {
				clear(t.Seg(head + i).Words) // nil-safe (COW-dropped)
				t.initSeg(head+i, space, gen, stamp, i > 0)
			}
			return head
		}
	}
	first := t.nseg
	for i := 0; i < k; i++ {
		t.grow()
		t.nseg++
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
	for head+k < t.nseg {
		s := t.Seg(head + k)
		if !s.InUse || !s.Cont {
			break
		}
		k++
	}
	return k
}

// FreeRun retires the whole object run starting at head — the head
// segment plus its continuations (RunLen) — in one call. Single
// segments (RunLen 1) go to the lazy list; longer runs are pooled
// intact by size class for reuse by a same-length AllocRun, keeping
// their contiguity (a run broken into singles could never be
// reassembled, so large-object churn would grow the table without
// bound). Words are not zeroed here (the clear is deferred to the
// claim that reuses them); COW-shared template words are dropped rather
// than cleared, exactly as in Free. Returns the run length.
func (t *Table) FreeRun(head int) int {
	k := t.RunLen(head)
	for i := 0; i < k; i++ {
		s := t.Seg(head + i)
		if !s.InUse {
			panic(fmt.Sprintf("seg: double free of segment %d", head+i))
		}
		if t.cowBits != nil && t.isShared(head+i) {
			s.Words = nil
			t.clearShared(head + i)
		}
		s.InUse = false
		s.Next = None
		s.Fill = 0
		// Continuations keep their Cont mark while pooled: the run
		// stays assembled, and callers freeing a mixed from-space list
		// can recognize a continuation whose head's FreeRun already
		// covered it.
		s.Cont = i > 0
	}
	if k == 1 {
		t.lazy = append(t.lazy, head)
		return 1
	}
	for len(t.runPool) <= k {
		t.runPool = append(t.runPool, nil)
	}
	t.runPool[k] = append(t.runPool[k], head)
	t.pooled += k
	return k
}

// Free retires segment idx onto the free list. Its words are zeroed so
// that any dangling pointer into it reads as fixnum 0 rather than a
// stale heap value, which keeps collector bugs loud. A table with a
// pool then gives the zeroed array away and keeps the bare slot, the
// state a dropped template alias leaves it in too. (FreeRun retires
// words unzeroed, so its stay with the table.)
func (t *Table) Free(idx int) {
	s := t.Seg(idx)
	if !s.InUse {
		panic(fmt.Sprintf("seg: double free of segment %d", idx))
	}
	if t.cowBits != nil && t.isShared(idx) {
		// The words belong to an immutable template shared with other
		// clones: drop the alias instead of zeroing it. initSeg
		// materializes a fresh array when the slot is reused.
		s.Words = nil
		t.clearShared(idx)
	} else {
		clear(s.Words)
		if t.pool != nil {
			t.pool.put(s.Words)
			s.Words = nil
		}
	}
	s.InUse = false
	s.Next = None
	s.Cont = false
	s.Fill = 0
	t.free = append(t.free, idx)
}

// Seg returns the segment with the given index. The pointer is stable:
// it remains valid as the table grows.
func (t *Table) Seg(idx int) *Segment {
	return &t.chunks[idx>>chunkBits][idx&chunkMask]
}

// Len returns the total number of segments ever created.
func (t *Table) Len() int { return t.nseg }

// FreeCount returns the number of retired segments awaiting reuse
// (eagerly freed, lazily freed, and pooled large-object runs alike).
func (t *Table) FreeCount() int { return len(t.free) + len(t.lazy) + t.pooled }

// PooledRunSegments returns the number of segments currently parked in
// the large-object run pools.
func (t *Table) PooledRunSegments() int { return t.pooled }

// InUseCount returns the number of live segments: pooled large-object
// runs are reclaimable (claim breaks them up before growing the table)
// and do not count.
func (t *Table) InUseCount() int { return t.nseg - t.FreeCount() }

// SegIndexOf returns the index of the segment containing the word
// address addr.
func SegIndexOf(addr uint64) int { return int(addr / Words) }

// Offset returns addr's offset within its segment.
func Offset(addr uint64) int { return int(addr % Words) }

// BaseAddr returns the word address of the first word of segment idx.
func BaseAddr(idx int) uint64 { return uint64(idx) * Words }

// SegOf returns the segment containing the word address addr.
func (t *Table) SegOf(addr uint64) *Segment { return t.Seg(int(addr / Words)) }

// Window returns the words from addr to the end of its segment, for
// reading: one table walk however many of them the caller then reads.
// Reads never fault — a segment aliasing a template array is read in
// place.
func (t *Table) Window(addr uint64) []uint64 {
	return t.SegOf(addr).Words[addr%Words:]
}

// Writable returns segment idx with its Words safe to store through:
// a segment that still aliases a template array (copy-on-write) is
// privatized first. This is the one place the privatize-before-first-
// write rule lives — SetWord is expressed on it, and
// callers that write several words of one segment (a freshly copied
// object, a swept object's fields) call it once and index the slice.
// Re-read Words after every call: privatize replaces the slice (the
// *Segment itself is stable).
func (t *Table) Writable(idx int) *Segment {
	if t.cowBits != nil && t.isShared(idx) {
		t.privatize(idx)
	}
	return t.Seg(idx)
}

// Word returns the heap word at addr. Word and SetWord are for one
// word at an arbitrary address; code that touches a whole
// object resolves its segment once (Window, Writable) instead.
func (t *Table) Word(addr uint64) uint64 { return t.Window(addr)[0] }

// SetWord stores w at addr (copy-on-write: see Writable).
func (t *Table) SetWord(addr uint64, w uint64) {
	t.Writable(int(addr / Words)).Words[addr%Words] = w
}
