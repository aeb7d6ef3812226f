package heap

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/obj"
)

// TestHeapSize pins what every heap carries before it has done
// anything: a server holds one per standing session. The remembered
// set's dirty list and the collection work lists are allocated when
// first needed, not inside Heap. A Heap is 1 608 bytes on 64-bit
// hosts, in the 1 792-byte Go size class (the class below is 1 536).
// A heap holds a cursor per space and generation, so an allocation
// cursor stays at 24 bytes, words cache included.
func TestHeapSize(t *testing.T) {
	if got := unsafe.Sizeof(Heap{}); got > 2048 {
		t.Errorf("Heap is %d bytes, want at most 2048", got)
	}
	if got := unsafe.Sizeof(cursor{}); got > 24 {
		t.Errorf("cursor is %d bytes, want at most 24", got)
	}
}

// TestLazyRemSetAndBorrowedScratch: a heap whose barrier never marks a
// segment has no dirty list, and every reader of the remembered set
// treats it as empty; a heap between collections holds no work lists,
// the collection having given its scratch back.
func TestLazyRemSetAndBorrowedScratch(t *testing.T) {
	h := NewDefault()
	keep := h.NewRoot(h.Cons(fix(1), obj.Nil))
	h.Collect(0)
	if h.dirty != nil {
		t.Fatal("dirty list allocated with nothing remembered")
	}
	if n := h.DirtyCount(); n != 0 {
		t.Fatalf("DirtyCount = %d on an empty set", n)
	}
	if sizes := h.DirtyByGen(); len(sizes) != h.cfg.Generations {
		t.Fatalf("DirtyByGen has %d generations, want %d", len(sizes), h.cfg.Generations)
	}
	if errs := h.Verify(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	var img bytes.Buffer
	if err := h.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CaptureTemplate(); err != nil {
		t.Fatal(err)
	}

	// An old-to-young store allocates the dirty list; the next
	// collection scans it.
	h.Collect(0) // keep's pair is now older than generation 0
	h.SetCar(keep.Get(), h.Cons(fix(2), obj.Nil))
	if h.dirty == nil || h.DirtyCount() != 1 {
		t.Fatalf("barrier hit not remembered: %d cells", h.DirtyCount())
	}
	h.Collect(0)
	if got := h.Car(h.Car(keep.Get())); got != fix(2) {
		t.Fatalf("young referent lost: %v", got)
	}
	if errs := h.Verify(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	c := &h.cp
	if h.sc != nil || c.large != nil || c.newWeak != nil || c.pendWeak != nil {
		t.Fatal("heap kept collection scratch after the collection")
	}
}
