package heap

import (
	"testing"

	"repro/internal/obj"
	"repro/internal/seg"
)

// The kleene-sweep scans to-space in place, from the copier's scan
// position up to its cursors. These tests pin what it sweeps exactly.

// verifyClean fails the test on the first Verify error.
func verifyClean(t *testing.T, h *Heap) {
	t.Helper()
	if errs := h.Verify(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}

// TestScanStartsAtHandedOverCursor: the target generation's open pair
// and obj segments are handed to the copier part full. The words
// already in them are not swept again, so CellsSwept counts the new
// copies alone; and the copies after them are swept, including the
// ones left in the handed-over obj segment when a pair scanned in the
// same pass spills that space's copies into a fresh segment.
func TestScanStartsAtHandedOverCursor(t *testing.T) {
	h := NewDefault()
	// Generation 1 gets 20 pair words and 500 obj words.
	lst := obj.Nil
	for i := 0; i < 10; i++ {
		lst = h.Cons(fix(i), lst)
	}
	keepList := h.NewRoot(lst)
	keepVec := h.NewRoot(h.MakeVector(499, fix(7)))
	h.Collect(0)
	pc, oc := &h.cur[seg.SpacePair][1], &h.cur[seg.SpaceObj][1]
	if pc.off != 20 || oc.off != 500 {
		t.Fatalf("generation 1 open segments at %d and %d words, want 20 and 500", pc.off, oc.off)
	}
	objSeg := oc.seg

	// Wave 1 is a pair p and a small vector o (obj words 500..502).
	// Sweeping p copies two 9-word vectors: the first fills the obj
	// segment to 512, the second opens a fresh one, before the same
	// pass sweeps o, whose field is the only path to a young pair.
	p := h.NewRoot(h.Cons(h.MakeVector(8, fix(1)), h.MakeVector(8, fix(2))))
	o := h.NewRoot(h.MakeVector(2, fix(3)))
	h.VectorSet(o.Get(), 1, h.Cons(fix(4), obj.Nil))
	h.Stats.Reset()
	rep := h.Collect(0)

	// p 2 + o 2, then the vectors 8 + 8 and the young pair 2.
	if rep.CellsSwept != 22 || rep.SweepPasses != 2 {
		t.Fatalf("swept %d cells in %d passes, want 22 in 2", rep.CellsSwept, rep.SweepPasses)
	}
	if oc.seg == objSeg || oc.off != 9 {
		t.Fatalf("obj cursor at segment %d word %d, want a fresh segment at 9", oc.seg, oc.off)
	}
	verifyClean(t, h)
	if y := h.VectorRef(o.Get(), 1); h.Car(y) != fix(4) {
		t.Fatalf("young pair lost: car %v", h.Car(y))
	}
	if got := h.VectorRef(h.Cdr(p.Get()), 7); got != fix(2) {
		t.Fatalf("spilled vector reads %v, want 2", got)
	}
	if got := h.ListLength(keepList.Get()); got != 10 {
		t.Fatalf("generation 1 list has %d pairs, want 10", got)
	}
	if got := h.VectorRef(keepVec.Get(), 498); got != fix(7) {
		t.Fatalf("generation 1 vector reads %v, want 7", got)
	}
}

// TestSweepWaveSpansSpaces: the second wave holds a pair, a weak pair,
// a small vector and a 600-slot vector — a large object, which no
// segment scan reaches — that is the only path to a young two-pair
// list. The longest path crosses the spaces (obj → pair → weak → obj
// → pair), so a pass that swept what an earlier space's scan copied in
// the same pass would record fewer than five.
func TestSweepWaveSpansSpaces(t *testing.T) {
	h := NewDefault()
	p3 := h.Cons(fix(5), obj.Nil)
	v2 := h.MakeVector(2, p3)
	p := h.Cons(obj.Nil, fix(1))
	w := h.WeakCons(p, v2)
	h.SetCar(p, w)
	big := h.MakeVector(600, obj.False)
	h.VectorSet(big, 599, h.List(fix(8), fix(9)))
	r := h.NewRoot(h.Vector(p, big, h.WeakCons(fix(2), fix(3)), h.MakeVector(1, fix(4))))
	h.Stats.Reset()
	rep := h.Collect(0)

	// Waves: r 4 | p 2, big 600, weak cdr 1, vector 1 | w's cdr 1,
	// list pair 2 | v2 2, list pair 2 | p3 2.
	if rep.SweepPasses != 5 || rep.CellsSwept != 617 {
		t.Fatalf("swept %d cells in %d passes, want 617 in 5", rep.CellsSwept, rep.SweepPasses)
	}
	verifyClean(t, h)
	p, big = h.VectorRef(r.Get(), 0), h.VectorRef(r.Get(), 1)
	w = h.Car(p)
	if h.Car(w) != p {
		t.Fatal("weak car does not follow its strongly held pair")
	}
	if got := h.Car(h.VectorRef(h.Cdr(w), 1)); got != fix(5) {
		t.Fatalf("pair behind the weak cdr reads %v, want 5", got)
	}
	if l := h.VectorRef(big, 599); h.ListLength(l) != 2 || h.Car(h.Cdr(l)) != fix(9) {
		t.Fatal("young list behind the large vector lost")
	}
}

// TestSweepCellsGuardianSalvage pins CellsSwept in the heap of
// TestSweepPassesCountGuardianResweeps: root → a two-pair tconc is 4
// cells; salvaging a dropped guarded pair sweeps it (2) and the tconc
// pair the collector appends for it (2).
func TestSweepCellsGuardianSalvage(t *testing.T) {
	build := func(register bool) uint64 {
		h := NewDefault()
		dummy := h.Cons(obj.False, obj.False)
		tc := h.NewRoot(h.Cons(dummy, dummy))
		if register {
			h.InstallGuardian(h.Cons(fix(1), fix(2)), tc.Get())
		}
		h.Collect(0)
		verifyClean(t, h)
		return h.Stats.CellsSwept
	}
	if got := build(false); got != 4 {
		t.Fatalf("baseline heap: %d cells swept, want 4", got)
	}
	if got := build(true); got != 8 {
		t.Fatalf("guardian salvage: %d cells swept, want 8", got)
	}
}
