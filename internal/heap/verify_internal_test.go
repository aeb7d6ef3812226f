package heap

import (
	"strings"
	"testing"

	"repro/internal/obj"
	"repro/internal/seg"
)

// Regression tests for the verifier's large-object handling: payload
// words living in continuation segments must be validated, and the
// run structure itself (continuation segments in use, marked Cont,
// matching space/generation) must be checked. These need heap-internal
// access to plant corruption, hence the in-package test file.

// makeLargeVector allocates a vector big enough to span segments and
// returns it plus the index of its first continuation segment.
func makeLargeVector(t *testing.T, h *Heap) (obj.Value, int) {
	t.Helper()
	v := h.MakeVector(700, obj.FromFixnum(1)) // 701 words -> 2-segment run
	head := seg.SegIndexOf(v.Addr())
	cont := head + 1
	if !h.tab.Seg(cont).Cont {
		t.Fatalf("expected segment %d to be a continuation of %d", cont, head)
	}
	return v, cont
}

func TestVerifyFlagsCorruptContinuationWord(t *testing.T) {
	h := NewDefault()
	v, cont := makeLargeVector(t, h)
	r := h.NewRoot(v)
	defer r.Release()
	if errs := h.Verify(); len(errs) != 0 {
		t.Fatalf("clean heap reported violations: %v", errs)
	}
	// Plant a stray forwarding word in the middle of the continuation
	// segment's payload — the classic signature of a half-finished copy.
	addr := seg.BaseAddr(cont) + 7
	h.setWord(addr, obj.MakeFwd(12345))
	errs := h.Verify()
	if len(errs) == 0 {
		t.Fatal("verifier missed a forwarding word in a continuation segment")
	}
	if !strings.Contains(errs[0].Error(), "forwarding word") {
		t.Fatalf("unexpected violation: %v", errs[0])
	}
}

func TestVerifyFlagsBrokenContinuationRun(t *testing.T) {
	h := NewDefault()
	v, cont := makeLargeVector(t, h)
	r := h.NewRoot(v)
	defer r.Release()
	// Simulate a collector bug that freed a continuation segment out
	// from under its object. The freed segment's words read back as
	// zeros — well-formed fixnums — so only the run-structure check can
	// catch this.
	h.tab.Free(cont)
	errs := h.Verify()
	if len(errs) == 0 {
		t.Fatal("verifier missed a freed continuation segment")
	}
	if !strings.Contains(errs[0].Error(), "continuation segment") {
		t.Fatalf("unexpected violation: %v", errs[0])
	}
}

func TestVerifyFlagsMismatchedContinuationGen(t *testing.T) {
	h := NewDefault()
	v, cont := makeLargeVector(t, h)
	r := h.NewRoot(v)
	defer r.Release()
	h.tab.Plant(cont, h.tab.Words(cont), h.tab.Info(cont)+seg.MakeInfo(0, 2)) // head is gen 0
	errs := h.Verify()
	if len(errs) == 0 {
		t.Fatal("verifier missed a continuation segment in the wrong generation")
	}
	if !strings.Contains(errs[0].Error(), "head is") {
		t.Fatalf("unexpected violation: %v", errs[0])
	}
}

// TestVerifyCatchesUnmarkedSegment: Verify's invariants 3 and 8 catch
// each way the marks and the dirty list can fall out of step with the
// words — an old-to-young pointer stored past the barrier into a clean
// segment, a marked segment missing from the list, one listed twice, a
// clean one listed — and a freed slot that kept its mark (seg.Table
// .Check).
func TestVerifyCatchesUnmarkedSegment(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(h *Heap, idx int, young obj.Value)
	}{
		{"store past the barrier", "in a segment marked clean", func(h *Heap, idx int, young obj.Value) {
			h.setWord(seg.BaseAddr(idx), uint64(young))
		}},
		{"marked, not listed", "not on the dirty list", func(h *Heap, idx int, young obj.Value) {
			h.tab.SetMark(idx, seg.MarkOf(0))
		}},
		{"listed twice", "on the dirty list twice", func(h *Heap, idx int, young obj.Value) {
			h.SetCar(obj.PairAt(seg.BaseAddr(idx)), young)
			h.dirty = append(h.dirty, idx)
		}},
		{"clean, listed", "clean segment", func(h *Heap, idx int, young obj.Value) {
			h.dirty = append(h.dirty, idx)
		}},
		{"freed slot keeps its mark", "free slot", func(h *Heap, idx int, young obj.Value) {
			free := h.tab.Alloc(seg.SpacePair, 2, h.stamp)
			h.tab.Free(free)
			h.tab.SetMark(free, seg.MarkOf(0))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewDefault()
			old := h.NewRoot(h.Cons(obj.False, obj.Nil))
			h.Collect(0)
			h.Collect(1) // tenure the pair to generation 2
			young := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
			if errs := h.Verify(); len(errs) != 0 {
				t.Fatalf("clean heap reported violations: %v", errs)
			}
			tc.corrupt(h, seg.SegIndexOf(old.Get().Addr()), young.Get())
			errs := h.Verify()
			if len(errs) == 0 {
				t.Fatal("verifier missed it")
			}
			if !strings.Contains(errs[0].Error(), tc.want) {
				t.Fatalf("violation %v, want one that says %q", errs[0], tc.want)
			}
		})
	}
}
