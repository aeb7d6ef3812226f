package seg

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// TestSegmentDescriptorSize pins the cold descriptor at 24 bytes and a
// table chunk at 1.5 KiB, and the dense entries at a pointer and three
// bytes a slot.
func TestSegmentDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(Segment{}); got != 24 {
		t.Errorf("Segment is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(segChunk{}); got != 1536 {
		t.Errorf("segChunk is %d bytes, want 1536", got)
	}
	if got := unsafe.Sizeof(Info(0)); got != 2 {
		t.Errorf("Info is %d bytes, want 2", got)
	}
}

// TestMarks: LowerMark only ever makes a mark younger and reports the
// step out of Clean alone; generations past the byte saturate younger;
// a freed slot's mark goes back to Clean; and a table built from
// template records takes their marks, a copy of its own.
func TestMarks(t *testing.T) {
	var tab Table
	idx := tab.Alloc(SpacePair, 3, 1)
	if tab.Mark(idx) != Clean || tab.Mark(idx).Gen() != MaxGenerations {
		t.Fatalf("fresh segment marked %d", tab.Mark(idx))
	}
	for _, step := range []struct {
		gen       int
		wasClean  bool
		wantAfter int
	}{{2, true, 2}, {2, false, 2}, {1, false, 1}, {2, false, 1}, {0, false, 0}} {
		if got := tab.LowerMark(idx, step.gen); got != step.wasClean || tab.Mark(idx).Gen() != step.wantAfter {
			t.Fatalf("LowerMark(%d): was clean %v, mark %d; want %v, %d",
				step.gen, got, tab.Mark(idx).Gen(), step.wasClean, step.wantAfter)
		}
	}
	if got := MarkOf(1000).Gen(); got != maxMarkGen {
		t.Fatalf("MarkOf(1000) holds generation %d, want it saturated at %d", got, maxMarkGen)
	}
	tab.Free(idx)
	if tab.Mark(idx) != Clean {
		t.Fatalf("freed slot keeps mark %d", tab.Mark(idx).Gen())
	}
	checkTable(t, &tab)

	words := make([]uint64, Words)
	segs := []TemplateSeg{{Index: 1, Words: words, Space: SpaceObj, Gen: 2, Mark: MarkOf(0), Fill: 1}}
	a, b := NewTableFromSegs(2, segs, true, nil), NewTableFromSegs(2, segs, true, nil)
	a.SetMark(1, Clean)
	if b.Mark(1) != MarkOf(0) || a.Mark(0) != Clean {
		t.Fatalf("clone marks %d/%d, want the template's 0 and a clean free slot", b.Mark(1).Gen(), a.Mark(0).Gen())
	}
	checkTable(t, a)
	checkTable(t, b)
}

// checkTable fails t on every inconsistency Check reports.
func checkTable(t *testing.T, tab *Table) {
	t.Helper()
	tab.Check(func(format string, args ...any) { t.Errorf(format, args...) })
}

// info is tab's entry for idx, space and generation unpacked.
func info(tab *Table, idx int) (Space, int) { i := tab.Info(idx); return i.Space(), i.Gen() }

func TestAllocBasics(t *testing.T) {
	var tab Table
	idx := tab.Alloc(SpacePair, 0, 1)
	s := tab.Seg(idx)
	if sp, g := info(&tab, idx); !tab.InUse(idx) || sp != SpacePair || g != 0 || s.Stamp != 1 {
		t.Fatalf("segment metadata wrong: %+v info %#x", s, tab.Info(idx))
	}
	if tab.Words(idx) == nil {
		t.Fatal("segment has no words")
	}
	if tab.InUseCount() != 1 || tab.FreeCount() != 0 {
		t.Fatal("counts wrong")
	}
	checkTable(t, &tab)
}

func TestFreeAndReuse(t *testing.T) {
	var tab Table
	a := tab.Alloc(SpacePair, 0, 1)
	tab.Words(a)[0] = 0xdead
	tab.Seg(a).Fill = 10
	tab.Free(a)
	if tab.InUse(a) || tab.Words(a) != nil || tab.Info(a) != 0 {
		t.Fatal("freed segment keeps its dense entries")
	}
	checkTable(t, &tab)
	b := tab.Alloc(SpaceObj, 2, 7)
	if b != a {
		t.Fatalf("free segment not reused: got %d, want %d", b, a)
	}
	s := tab.Seg(b)
	if sp, g := info(&tab, b); sp != SpaceObj || g != 2 || s.Stamp != 7 || s.Fill != 0 || s.Cont {
		t.Fatalf("reused segment metadata stale: %+v", s)
	}
	if tab.Words(b)[0] != 0 {
		t.Fatal("reused segment's words not zeroed")
	}
	checkTable(t, &tab)
}

func TestDoubleFreePanics(t *testing.T) {
	var tab Table
	a := tab.Alloc(SpacePair, 0, 1)
	tab.Free(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	tab.Free(a)
}

func TestAllocRunContiguous(t *testing.T) {
	var tab Table
	tab.Alloc(SpacePair, 0, 1) // occupy index 0
	first := tab.AllocRun(SpaceData, 1, 5, 3)
	for i := 0; i < 3; i++ {
		s := tab.Seg(first + i)
		if sp, g := info(&tab, first+i); !tab.InUse(first+i) || sp != SpaceData || g != 1 || s.Stamp != 5 {
			t.Fatalf("run segment %d metadata wrong: %+v", i, s)
		}
		if s.Cont != (i > 0) {
			t.Fatalf("run segment %d Cont = %v", i, s.Cont)
		}
	}
	// Address arithmetic spans the run.
	base := BaseAddr(first)
	tab.SetWord(base+Words+5, 42) // word inside the second segment
	if tab.Word(base+Words+5) != 42 {
		t.Fatal("cross-segment addressing broken")
	}
}

func TestFreeRunPoolsAndReuses(t *testing.T) {
	var tab Table
	first := tab.AllocRun(SpaceData, 0, 1, 3)
	for i := 0; i < 3; i++ {
		tab.Words(first + i)[0] = 0xbeef
	}
	if got := tab.RunLen(first); got != 3 {
		t.Fatalf("RunLen = %d, want 3", got)
	}
	if got := tab.FreeRun(first); got != 3 {
		t.Fatalf("FreeRun returned %d, want 3", got)
	}
	if tab.PooledRunSegments() != 3 || tab.FreeCount() != 3 || tab.InUseCount() != 0 {
		t.Fatalf("counts after FreeRun: pooled=%d free=%d inuse=%d",
			tab.PooledRunSegments(), tab.FreeCount(), tab.InUseCount())
	}
	for i := 0; i < 3; i++ {
		s := tab.Seg(first + i)
		if tab.InUse(first + i) {
			t.Fatalf("pooled segment %d still in use", i)
		}
		if s.Cont != (i > 0) {
			t.Fatalf("pooled segment %d Cont = %v", i, s.Cont)
		}
	}
	checkTable(t, &tab)
	// A same-length AllocRun reuses the pooled run without growing the
	// table, and its stale words are zeroed on the way out.
	again := tab.AllocRun(SpaceObj, 2, 9, 3)
	if again != first {
		t.Fatalf("pooled run not reused: got %d, want %d", again, first)
	}
	if tab.Len() != 3 || tab.PooledRunSegments() != 0 {
		t.Fatalf("table grew past pooled run: len=%d pooled=%d", tab.Len(), tab.PooledRunSegments())
	}
	for i := 0; i < 3; i++ {
		s := tab.Seg(again + i)
		if sp, g := info(&tab, again+i); !tab.InUse(again+i) || sp != SpaceObj || g != 2 || s.Stamp != 9 || s.Cont != (i > 0) {
			t.Fatalf("reused run segment %d metadata stale: %+v", i, s)
		}
		if tab.Words(again + i)[0] != 0 {
			t.Fatalf("reused run segment %d not zeroed", i)
		}
	}
}

func TestFreeRunSingleGoesToLazyList(t *testing.T) {
	var tab Table
	a := tab.Alloc(SpacePair, 0, 1)
	tab.Words(a)[3] = 7
	if got := tab.FreeRun(a); got != 1 {
		t.Fatalf("FreeRun of single = %d, want 1", got)
	}
	if tab.PooledRunSegments() != 0 || tab.FreeCount() != 1 {
		t.Fatalf("single went to pool: pooled=%d free=%d", tab.PooledRunSegments(), tab.FreeCount())
	}
	b := tab.Alloc(SpaceObj, 1, 2)
	if b != a {
		t.Fatalf("lazily-freed single not reused: got %d, want %d", b, a)
	}
	if tab.Words(b)[3] != 0 {
		t.Fatal("deferred zeroing skipped on reuse")
	}
}

func TestClaimBreaksUpPooledRun(t *testing.T) {
	var tab Table
	small := tab.AllocRun(SpaceData, 0, 1, 2)
	big := tab.AllocRun(SpaceData, 0, 1, 4)
	tab.FreeRun(big)
	tab.FreeRun(small)
	if tab.PooledRunSegments() != 6 {
		t.Fatalf("pooled = %d, want 6", tab.PooledRunSegments())
	}
	// With no singles free, a plain Alloc breaks up the smallest pooled
	// class first, lowest index first, without growing the table.
	a := tab.Alloc(SpacePair, 0, 5)
	if a != small {
		t.Fatalf("breakup claimed %d, want smallest run's head %d", a, small)
	}
	if tab.Len() != 6 {
		t.Fatalf("table grew to %d despite pooled runs", tab.Len())
	}
	if tab.PooledRunSegments() != 4 {
		t.Fatalf("pooled after breakup = %d, want 4 (big run intact)", tab.PooledRunSegments())
	}
	if tab.Seg(small + 1).Cont {
		t.Fatal("broken-up continuation kept its Cont mark")
	}
	// The big run is still poolable as a unit.
	if got := tab.AllocRun(SpaceData, 1, 6, 4); got != big {
		t.Fatalf("big run not reused after breakup of small: got %d, want %d", got, big)
	}
}

func TestFreeRunDoubleFreePanics(t *testing.T) {
	var tab Table
	first := tab.AllocRun(SpaceData, 0, 1, 2)
	tab.FreeRun(first)
	defer func() {
		if recover() == nil {
			t.Fatal("double FreeRun did not panic")
		}
	}()
	tab.FreeRun(first)
}

func TestAddressingHelpers(t *testing.T) {
	if SegIndexOf(0) != 0 || SegIndexOf(Words-1) != 0 || SegIndexOf(Words) != 1 {
		t.Fatal("SegIndexOf wrong")
	}
	if Offset(Words+3) != 3 {
		t.Fatal("Offset wrong")
	}
	if BaseAddr(2) != 2*Words {
		t.Fatal("BaseAddr wrong")
	}
	var tab Table
	idx := tab.Alloc(SpaceWeak, 0, 1)
	addr := BaseAddr(idx) + 9
	tab.SetWord(addr, 77)
	if tab.Word(addr) != 77 || &tab.Window(addr)[0] != &tab.Words(idx)[9] {
		t.Fatal("word accessors wrong")
	}
}

func TestSpaceNames(t *testing.T) {
	for s := Space(0); s < NumSpaces; s++ {
		if s.String() == "" {
			t.Errorf("space %d has empty name", s)
		}
	}
}

// TestWritableIsTheCopyOnWriteRule checks the two word accessors of a
// copy-on-write table: Window (and Word on it) reads a shared segment
// in place, Writable privatizes it exactly once, and neither it nor
// SetWord — expressed on Writable — writes through to the template's
// array.
func TestWritableIsTheCopyOnWriteRule(t *testing.T) {
	arrays := make([][]uint64, 3)
	segs := make([]TemplateSeg, 3)
	for i := range segs {
		arrays[i] = make([]uint64, Words)
		arrays[i][7] = uint64(100 + i)
		segs[i] = TemplateSeg{Index: i, Words: arrays[i], Space: SpacePair, Fill: 8}
	}
	tab := NewTableFromSegs(3, segs, true, nil)
	checkTable(t, tab)
	if w := tab.Window(BaseAddr(1) + 7); len(w) != Words-7 || w[0] != 101 || tab.Word(BaseAddr(2)+7) != 102 {
		t.Fatalf("window of %d words starting %d", len(w), w[0])
	}
	if tab.COWCopies() != 0 || tab.SharedCount() != 3 {
		t.Fatalf("reads faulted: %d copies, %d shared", tab.COWCopies(), tab.SharedCount())
	}
	w := tab.Writable(0)
	if w != tab.Words(0) || &w[0] == &arrays[0][0] || w[7] != 100 {
		t.Fatal("Writable did not return segment 0 with a private copy of its words")
	}
	w[7] = 1
	if tab.Writable(0); tab.COWCopies() != 1 || tab.Info(0)&InfoShared != 0 {
		t.Fatalf("second Writable: %d copies, info %#x", tab.COWCopies(), tab.Info(0))
	}
	tab.SetWord(BaseAddr(1)+7, 2)
	tab.Writable(2)[7] = 3
	checkTable(t, tab)
	if tab.COWCopies() != 3 || tab.SharedCount() != 0 {
		t.Fatalf("after SetWord and Writable: %d copies, %d shared", tab.COWCopies(), tab.SharedCount())
	}
	for i := range arrays {
		if arrays[i][7] != uint64(100+i) || tab.Word(BaseAddr(i)+7) != uint64(i+1) {
			t.Fatalf("segment %d: template word %d, table word %d", i, arrays[i][7], tab.Word(BaseAddr(i)+7))
		}
	}
}

// poolFamily builds n tables over one three-segment template and one
// pool, the way a heap template's clones are built.
func poolFamily(n int) (*Pool, []*Table) {
	segs := make([]TemplateSeg, 3)
	for i := range segs {
		segs[i] = TemplateSeg{Index: i, Words: make([]uint64, Words), Space: SpacePair, Fill: 8}
		segs[i].Words[0] = 1000 + uint64(i)
	}
	pool := &Pool{}
	tabs := make([]*Table, n)
	for i := range tabs {
		tabs[i] = NewTableFromSegs(3, segs, true, pool)
	}
	return pool, tabs
}

// fillSeg stamps every word of segment idx with pat.
func fillSeg(t *Table, idx int, pat uint64) {
	w := t.Writable(idx)
	for i := range w {
		w[i] = pat
	}
}

// TestPoolPassesZeroedArraysBetweenTables: Free leaves the slot bare
// and parks the zeroed array, the next table to need storage gets that
// very array, all zero, and an array in use by one table is never
// handed to another (each table's fill pattern survives the other's
// churn). Dropped template aliases and lazily retired words never
// reach the pool.
func TestPoolPassesZeroedArraysBetweenTables(t *testing.T) {
	pool, tabs := poolFamily(2)
	a, b := tabs[0], tabs[1]
	ia := a.Alloc(SpacePair, 0, 1)
	fillSeg(a, ia, 0xAAAA)
	arr := a.Words(ia)
	a.Free(ia)
	if a.Words(ia) != nil || pool.Len() != 1 {
		t.Fatalf("after Free: slot keeps its words, pool holds %d arrays", pool.Len())
	}
	ib := b.Alloc(SpaceObj, 0, 1)
	if b.Words(ib) != arr || pool.Len() != 0 {
		t.Fatal("the second table did not get the array the first one retired")
	}
	for i, w := range b.Words(ib) {
		if w != 0 {
			t.Fatalf("pooled array word %d = %#x, want 0", i, w)
		}
	}
	fillSeg(b, ib, 0xBBBB)

	// Churn a: its segments never alias b's live one.
	for round := 0; round < 3*PoolCap; round++ {
		i := a.Alloc(SpacePair, 0, 1)
		if a.Words(i) == b.Words(ib) {
			t.Fatal("two tables hold one array")
		}
		fillSeg(a, i, 0xAAAA)
		a.Free(i)
	}
	for i, w := range b.Words(ib) {
		if w != 0xBBBB {
			t.Fatalf("table b word %d = %#x after table a's churn", i, w)
		}
	}

	// A privatized template segment comes out of the pool too, and
	// carries the template's words, not a stale pattern.
	if pool.Len() == 0 {
		t.Fatal("churn left the pool empty")
	}
	n := pool.Len()
	if w := a.Writable(1); w[0] != 1001 || w[1] != 0 || pool.Len() != n-1 {
		t.Fatalf("privatized words %d,%d with %d arrays pooled (were %d)", w[0], w[1], pool.Len(), n)
	}

	// What must not be pooled: a shared array (the template's).
	n = pool.Len()
	a.Free(2) // still shared
	if pool.Len() != n {
		t.Fatalf("freeing a shared segment pooled its array: %d arrays, want %d", pool.Len(), n)
	}
	checkTable(t, a)
	checkTable(t, b)
}

// TestPoolIsBounded: a burst of retirements parks at most PoolCap
// arrays; the rest go back to the Go collector.
func TestPoolIsBounded(t *testing.T) {
	pool, tabs := poolFamily(1)
	tab := tabs[0]
	var idx []int
	for i := 0; i < 2*PoolCap; i++ {
		idx = append(idx, tab.Alloc(SpacePair, 0, 1))
	}
	for _, i := range idx {
		tab.Free(i)
		if tab.Words(i) != nil {
			t.Fatalf("segment %d keeps its words after Free", i)
		}
	}
	if pool.Len() != PoolCap {
		t.Fatalf("pool holds %d arrays, want the cap %d", pool.Len(), PoolCap)
	}
}

// TestPoolConcurrentTables runs two tables of one family on two
// goroutines (each table single-threaded, as a session's heap is):
// under -race this is the check that the pool is the only thing they
// share, and the pattern check that no array is ever in two hands.
func TestPoolConcurrentTables(t *testing.T) {
	_, tabs := poolFamily(2)
	var wg sync.WaitGroup
	errs := make(chan error, len(tabs))
	for k, tab := range tabs {
		wg.Add(1)
		go func(tab *Table, pat uint64) {
			defer wg.Done()
			var live []int
			for round := 0; round < 2000; round++ {
				i := tab.Alloc(SpacePair, 0, 1)
				for j, w := range tab.Words(i) {
					if w != 0 {
						errs <- fmt.Errorf("table %#x: fresh segment word %d = %#x", pat, j, w)
						return
					}
				}
				fillSeg(tab, i, pat)
				live = append(live, i)
				if len(live) > 8 {
					for _, j := range live {
						if w := tab.Words(j); w[0] != pat || w[Words-1] != pat {
							errs <- fmt.Errorf("table %#x: segment %d overwritten (%#x)", pat, j, w[0])
							return
						}
						tab.Free(j)
					}
					live = live[:0]
				}
			}
		}(tab, 0xA0+uint64(k))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNewTableFromSegsHoles: a table built over records with gaps keeps
// its free slots as holes — a slot Free retires later is claimed first,
// then the holes lowest index first, then new slots — and a large
// run grows the table past them. A sparse table's holes cost no
// descriptors.
func TestNewTableFromSegsHoles(t *testing.T) {
	rec := func(idx int) TemplateSeg {
		return TemplateSeg{Index: idx, Words: make([]uint64, Words), Space: SpaceObj, Gen: 1, Fill: 1}
	}
	tab := NewTableFromSegs(6, []TemplateSeg{rec(1), rec(4)}, false, nil)
	if tab.Len() != 6 || tab.InUseCount() != 2 || tab.FreeCount() != 4 {
		t.Fatalf("len %d, %d in use, %d free", tab.Len(), tab.InUseCount(), tab.FreeCount())
	}
	if sp, g := info(tab, 4); !tab.InUse(4) || sp != SpaceObj || g != 1 || tab.Seg(4).Fill != 1 {
		t.Fatalf("record 4 not placed: info %#x", tab.Info(4))
	}
	checkTable(t, tab)
	tab.Free(tab.Alloc(SpacePair, 0, 2)) // slot 0 back, onto the free list
	var got []int
	for range 5 {
		got = append(got, tab.Alloc(SpacePair, 0, 2))
	}
	if want := []int{0, 2, 3, 5, 6}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("claimed %v, want %v", got, want)
	}
	if run := tab.AllocRun(SpaceData, 0, 2, 2); run != 7 {
		t.Fatalf("run at %d, want 7", run)
	}
	checkTable(t, tab)

	sparse := NewTableFromSegs(1<<20, []TemplateSeg{rec(1<<20 - 1)}, false, nil)
	if n := len(sparse.holes); n != 1 || sparse.FreeCount() != 1<<20-1 {
		t.Fatalf("%d hole ranges, %d free", n, sparse.FreeCount())
	}
	for i, c := range sparse.chunks[:len(sparse.chunks)-1] {
		if c != nil {
			t.Fatalf("chunk %d of free slots made", i)
		}
	}
	checkTable(t, sparse)
}
