package heap_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// Tests for the remembered set of segment marks: the DirtyCount /
// DirtyByGen / Census reporting contract, the young collection's skip
// of segments marked older, the weak-space scan, and clones marking
// their own tables.

// TestDirtyCountContract pins down the DirtyCount contract: the number
// of dirty segments, each counted once however many of its cells were
// stored into, valid at any time — mid-mutation, from a post-collect
// hook, and after collections have re-marked segments — with Census
// reporting the same figure by generation.
func TestDirtyCountContract(t *testing.T) {
	h := heap.NewDefault()
	oldA := h.NewRoot(h.Cons(obj.False, obj.Nil))
	oldB := h.NewRoot(h.Cons(obj.False, obj.Nil))
	oldV := h.NewRoot(h.MakeVector(4, obj.False))
	h.Collect(0)
	h.Collect(1) // tenure the pairs and the vector to generation 2
	if got := h.DirtyCount(); got != 0 {
		t.Fatalf("clean tenured heap has DirtyCount %d", got)
	}

	young := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	// Re-writing one cell any number of times counts its segment once.
	for i := 0; i < 10; i++ {
		h.SetCar(oldA.Get(), young.Get())
	}
	if got := h.DirtyCount(); got != 1 {
		t.Fatalf("10 writes to one cell: DirtyCount %d, want 1", got)
	}
	// Another cell of the same segment adds nothing (the two pairs were
	// copied side by side); a cell of another segment counts.
	h.SetCdr(oldB.Get(), young.Get())
	if got := h.DirtyCount(); got != 1 {
		t.Fatalf("two cells of one segment: DirtyCount %d, want 1", got)
	}
	h.VectorSet(oldV.Get(), 0, young.Get())
	if got := h.DirtyCount(); got != 2 {
		t.Fatalf("two dirty segments: DirtyCount %d, want 2", got)
	}
	// Immediate stores mark nothing (nothing for a young collection to
	// find), so the count is unchanged.
	h.SetCar(oldB.Get(), obj.FromFixnum(7))
	if got := h.DirtyCount(); got != 2 {
		t.Fatalf("immediate store changed DirtyCount to %d", got)
	}

	// Census reports the same segments by generation.
	c := h.Census()
	if want := []int{2, 0, 0, 0}; !slices.Equal(c.DirtyByGen, want) {
		t.Fatalf("Census.DirtyByGen %v, want %v", c.DirtyByGen, want)
	}

	// During a collection, a post-collect hook sees the segments the
	// *next* dirty scan will start from: the re-marks and the weak
	// pass's are complete before hooks run, so the hook's view equals
	// the post-collection view.
	var fromHook = -1
	h.AddPostCollectHook(func(hh *heap.Heap, _ *heap.CollectionReport) { fromHook = hh.DirtyCount() })
	h.Collect(0) // young referent promoted to gen 1: both segments still point younger
	if fromHook != h.DirtyCount() {
		t.Fatalf("hook saw DirtyCount %d, after collection %d", fromHook, h.DirtyCount())
	}
	if got, want := h.DirtyByGen(), []int{0, 2, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("after Collect(0): DirtyByGen %v, want %v (cells point gen1 < gen2)", got, want)
	}
	// Collecting generation 1 promotes the referent next to the cells'
	// generation; the segments end clean and the count drops to zero.
	h.Collect(1)
	if got := h.DirtyCount(); got != 0 {
		t.Fatalf("after Collect(1): DirtyCount %d, want 0 (segments clean)", got)
	}
	h.MustVerify()
}

// TestRemSetShardSizes checks the remembered set's per-generation
// report (the name is from when it reported per-shard sizes):
// DirtyByGen counts every dirty segment under the youngest generation
// it points into, sums to DirtyCount, agrees with Census, and follows
// the referents as collections promote them.
func TestRemSetShardSizes(t *testing.T) {
	h := heap.NewDefault()
	old := h.NewRoot(h.List(obj.False, obj.False, obj.False, obj.False))
	vec := h.NewRoot(h.MakeVector(4, obj.False))
	for g := 0; g < 3; g++ {
		h.Collect(g) // tenure both to generation 3
	}
	mid := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	h.Collect(0) // mid to generation 1
	for v := old.Get(); v.IsPair(); v = h.Cdr(v) {
		h.SetCar(v, mid.Get())
	}
	h.VectorSet(vec.Get(), 0, h.Cons(obj.FromFixnum(2), obj.Nil))
	for _, step := range []struct {
		collect int
		want    []int
	}{
		{-1, []int{1, 1, 0, 0}}, // the vector's segment points into 0, the list's into 1
		{0, []int{0, 2, 0, 0}},
		{1, []int{0, 0, 2, 0}},
		{2, []int{0, 0, 0, 0}}, // every referent now in the cells' own generation
	} {
		if step.collect >= 0 {
			h.Collect(step.collect)
		}
		sizes := h.DirtyByGen()
		if !slices.Equal(sizes, step.want) {
			t.Fatalf("after Collect(%d): DirtyByGen %v, want %v", step.collect, sizes, step.want)
		}
		sum := 0
		for _, n := range sizes {
			sum += n
		}
		if sum != h.DirtyCount() {
			t.Fatalf("DirtyByGen sums to %d, DirtyCount %d", sum, h.DirtyCount())
		}
		if c := h.Census(); !slices.Equal(c.DirtyByGen, sizes) {
			t.Fatalf("Census.DirtyByGen %v, DirtyByGen %v", c.DirtyByGen, sizes)
		}
		h.MustVerify()
	}
	if got := h.Car(h.VectorRef(vec.Get(), 0)); got != obj.FromFixnum(2) {
		t.Fatalf("vector's referent lost: %v", got)
	}
}

// TestDirtyScanPhaseAttribution checks that remembered-set scan time
// lands in the dedicated dirty-scan phase column (and not in old-scan,
// which is reserved for the conservative full scan), and that the
// words it examined reach the report and the trace event alike.
func TestDirtyScanPhaseAttribution(t *testing.T) {
	h := heap.NewDefault()
	old := h.NewRoot(h.Cons(obj.False, obj.Nil))
	h.Collect(0)
	h.Collect(1)
	h.SetCar(old.Get(), h.Cons(obj.FromFixnum(1), obj.Nil))
	rep := h.Collect(0)
	if rep.Phases[heap.PhaseDirtyScan] <= 0 {
		t.Fatal("dirty-scan phase recorded no time for a dirty-set collection")
	}
	if rep.Phases[heap.PhaseOldScan] != 0 {
		t.Fatal("old-scan phase accrued time with the dirty set enabled")
	}
	h.EnableTrace(4)
	h.SetCar(old.Get(), h.Cons(obj.FromFixnum(2), obj.Nil))
	rep = h.Collect(0)
	evs := h.TraceEvents()
	ev := evs[len(evs)-1]
	if rep.DirtyCellsScanned == 0 || ev.DirtyCellsScanned != rep.DirtyCellsScanned {
		t.Fatalf("report scanned %d words, trace event %d", rep.DirtyCellsScanned, ev.DirtyCellsScanned)
	}
}

// TestYoungCollectionSkipsOlderMarkedSegment: a tenured vector whose
// slots point into generation 1 is not read by a collection of
// generation 0, which scans only the segment stored into since; a
// collection of generation 1 scans it and re-marks it with the target.
func TestYoungCollectionSkipsOlderMarkedSegment(t *testing.T) {
	h := heap.NewDefault()
	vec := h.NewRoot(h.MakeVector(64, obj.False))
	pair := h.NewRoot(h.Cons(obj.False, obj.Nil))
	for g := 0; g < 3; g++ {
		h.Collect(g) // tenure both to generation 3
	}
	for i := 0; i < 64; i++ {
		h.VectorSet(vec.Get(), i, h.Cons(obj.FromFixnum(int64(i)), obj.Nil))
	}
	first := h.Collect(0).DirtyCellsScanned // the slots' referents go to generation 1
	if first == 0 {
		t.Fatal("the vector's segment was not scanned while it pointed into generation 0")
	}
	if got, want := h.DirtyByGen(), []int{0, 1, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("after the first Collect(0): DirtyByGen %v, want %v", got, want)
	}
	h.MustVerify()

	h.SetCar(pair.Get(), h.Cons(obj.FromFixnum(-1), obj.Nil))
	if got := h.Collect(0).DirtyCellsScanned; got != 2 {
		t.Fatalf("Collect(0) scanned %d words, want the one tenured pair's 2: the vector is marked 1", got)
	}
	h.MustVerify()
	if got := h.Collect(1).DirtyCellsScanned; got != first+2 {
		t.Fatalf("Collect(1) scanned %d words, want the vector segment's %d and the pair's 2", got, first)
	}
	if got, want := h.DirtyByGen(), []int{0, 0, 2, 0}; !slices.Equal(got, want) {
		t.Fatalf("after Collect(1): DirtyByGen %v, want %v (re-marked to the target)", got, want)
	}
	h.MustVerify()
	for i := 0; i < 64; i++ {
		if got := h.Car(h.VectorRef(vec.Get(), i)); got != obj.FromFixnum(int64(i)) {
			t.Fatalf("slot %d holds %v", i, got)
		}
	}
}

// TestDirtyScanWeakSegment: the scan of a dirty weak segment forwards
// the cdr of an old weak pair, and hands a car that points into
// from-space to the weak pass, which forwards it when the referent
// lives and breaks it when it dies — and re-marks the segment by what
// is left.
func TestDirtyScanWeakSegment(t *testing.T) {
	h := heap.NewDefault()
	wp := h.NewRoot(h.WeakCons(obj.False, obj.Nil))
	h.Collect(0)
	h.Collect(1) // tenure the weak pair to generation 2
	live := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	h.SetCar(wp.Get(), live.Get())
	h.SetCdr(wp.Get(), h.Cons(obj.FromFixnum(3), obj.Nil))
	h.Collect(0)
	h.MustVerify()
	if car := h.Car(wp.Get()); car != live.Get() || h.Car(car) != obj.FromFixnum(1) {
		t.Fatalf("live weak car %v not forwarded to %v", car, live.Get())
	}
	if cdr := h.Cdr(wp.Get()); !cdr.IsPair() || h.Car(cdr) != obj.FromFixnum(3) || h.Generation(cdr) != 1 {
		t.Fatalf("weak pair's cdr %v not forwarded", cdr)
	}
	if got, want := h.DirtyByGen(), []int{0, 1, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("DirtyByGen %v, want %v", got, want)
	}

	h.SetCar(wp.Get(), h.Cons(obj.FromFixnum(4), obj.Nil)) // held by the weak car alone
	broken := h.Stats.WeakPointersBroken
	h.Collect(0)
	h.MustVerify()
	if car := h.Car(wp.Get()); car != obj.False || h.Stats.WeakPointersBroken != broken+1 {
		t.Fatalf("dead weak car reads %v, %d broken", car, h.Stats.WeakPointersBroken-broken)
	}
	if got, want := h.DirtyByGen(), []int{0, 1, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("after the break: DirtyByGen %v, want %v (the cdr still points into 1)", got, want)
	}
	h.Collect(1)
	h.MustVerify()
	if got := h.DirtyCount(); got != 0 {
		t.Fatalf("after Collect(1): DirtyCount %d, want 0", got)
	}
}

// TestClonesMarkIndependently: two clones of one template, on two
// goroutines, store into their shared tenured segments and collect;
// each marks its own table, and neither the template's marks (a third
// clone, made afterwards) nor the donor's change. Run it under -race
// too.
func TestClonesMarkIndependently(t *testing.T) {
	donor := heap.NewDefault()
	donor.NewRoot(donor.MakeVector(8, obj.False)) // root 0; the pair is root 1
	pair := donor.NewRoot(donor.Cons(obj.False, obj.Nil))
	donor.Collect(0)
	donor.Collect(1) // tenure both to generation 2
	donor.SetCar(pair.Get(), donor.Cons(obj.FromFixnum(1), obj.Nil))
	want := donor.DirtyByGen()
	if want[0] != 1 {
		t.Fatalf("setup: donor DirtyByGen %v, want one segment marked 0", want)
	}
	tpl, err := donor.CaptureTemplate()
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, roots, err := heap.CloneFromTemplate(tpl)
			if err != nil {
				errs[k] = err
				return
			}
			for i := 0; i < 40; i++ {
				h.VectorSet(roots[0].Get(), i%8, h.Cons(obj.FromFixnum(int64(i)), obj.Nil))
				if k == 1 {
					h.SetCdr(roots[1].Get(), h.Cons(obj.FromFixnum(int64(-i)), obj.Nil))
				}
				h.Collect(i % 3)
				if verrs := h.Verify(); len(verrs) > 0 {
					errs[k] = fmt.Errorf("clone %d, round %d: %v", k, i, verrs[0])
					return
				}
			}
			if got := h.Car(h.VectorRef(roots[0].Get(), 7)); got != obj.FromFixnum(39) {
				errs[k] = fmt.Errorf("clone %d: slot 7 holds %v", k, got)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	third, _, err := heap.CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if got := third.DirtyByGen(); !slices.Equal(got, want) {
		t.Fatalf("a clone made after the others has DirtyByGen %v, the template's was %v", got, want)
	}
	if got := donor.DirtyByGen(); !slices.Equal(got, want) {
		t.Fatalf("donor DirtyByGen %v, want %v", got, want)
	}
	third.MustVerify()
	donor.MustVerify()
}
