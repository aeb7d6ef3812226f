package heap

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/obj"
	"repro/internal/seg"
)

// Tests for segment-window word access: the allocation cursors that
// cache their open segment, the windows the constructors and the
// copying core read and write objects through, the large-object run
// that is the one exception, and copy-on-write privatization of
// from-space by forward. In-package: they inspect cursors, the segment
// table and a template's word arrays.

// oneCopier runs f on a fresh default heap at Workers 1, the one
// copier, as the subtest "workers=1".
func oneCopier(t *testing.T, f func(t *testing.T, h *Heap)) {
	t.Run("workers=1", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Workers = 1
		f(t, MustNew(cfg))
	})
}

func fix(i int) obj.Value { return obj.FromFixnum(int64(i)) }

// TestWindowPairAtSegmentEnd puts a pair in the last two words of a
// segment: the next Cons must open a fresh segment at offset 0, both
// pairs must read back, and the cursor must follow.
func TestWindowPairAtSegmentEnd(t *testing.T) {
	oneCopier(t, func(t *testing.T, h *Heap) {
		root := h.NewRoot(obj.Nil)
		for i := 0; i < seg.Words/2-1; i++ {
			root.Set(h.Cons(fix(i), root.Get()))
		}
		cur := &h.cur[seg.SpacePair][0]
		if cur.off != seg.Words-2 {
			t.Fatalf("cursor at %d before the last pair, want %d", cur.off, seg.Words-2)
		}
		first := cur.seg
		last := h.Cons(fix(-1), root.Get())
		root.Set(last)
		if seg.SegIndexOf(last.Addr()) != first || seg.Offset(last.Addr()) != seg.Words-2 {
			t.Fatalf("last pair at segment %d offset %d, want %d/%d",
				seg.SegIndexOf(last.Addr()), seg.Offset(last.Addr()), first, seg.Words-2)
		}
		if cur.seg != first || cur.off != seg.Words || cur.s.Fill != seg.Words {
			t.Fatalf("cursor %d/%d fill %d after filling the segment", cur.seg, cur.off, cur.s.Fill)
		}
		next := h.Cons(fix(-2), root.Get())
		root.Set(next)
		if cur.seg == first || seg.SegIndexOf(next.Addr()) != cur.seg || seg.Offset(next.Addr()) != 0 || cur.off != 2 {
			t.Fatalf("pair after a full segment at %d/%d, cursor %d/%d",
				seg.SegIndexOf(next.Addr()), seg.Offset(next.Addr()), cur.seg, cur.off)
		}
		h.MustVerify()
		check := func() {
			t.Helper()
			p := root.Get()
			for _, want := range []int{-2, -1, seg.Words/2 - 2} {
				if got := h.Car(p).FixnumValue(); got != int64(want) {
					t.Fatalf("list element %d, want %d", got, want)
				}
				p = h.Cdr(p)
			}
			if n := h.ListLength(root.Get()); n != seg.Words/2+1 {
				t.Fatalf("list length %d, want %d", n, seg.Words/2+1)
			}
		}
		check()
		h.Collect(0)
		h.MustVerify()
		check()
	})
}

// TestWindowObjectSizes allocates objects either side of the one-segment
// limit — exactly seg.Words words (the last to be copied through a
// window) and seg.Words+1 (the first large-object run) — through every
// variable-size constructor, and checks they survive two collections
// with pointer fields swept across the run.
func TestWindowObjectSizes(t *testing.T) {
	oneCopier(t, func(t *testing.T, h *Heap) {
		const exact, over = seg.Words - 1, seg.Words // payload words: totals seg.Words and seg.Words+1
		elems := make([]obj.Value, over+90)
		for i := range elems {
			elems[i] = fix(i)
		}
		text := strings.Repeat("0123456789abcdef", seg.Words) // 8 KB: a two-segment string
		roots := map[string]*Root{
			"exact":  h.NewRoot(h.MakeVector(exact, obj.Nil)),
			"over":   h.NewRoot(h.MakeVector(over, obj.Nil)),
			"vector": h.NewRoot(h.Vector(elems...)),
			"record": h.NewRoot(h.MakeRecord(fix(7), over+5)),
			"string": h.NewRoot(h.MakeString(text)),
			"short":  h.NewRoot(h.MakeString("nine byte")),
		}
		for name, wantRun := range map[string]int{"exact": 1, "over": 2, "vector": 2, "record": 2, "string": 3} {
			if got := h.tab.RunLen(seg.SegIndexOf(roots[name].Get().Addr())); got != wantRun {
				t.Fatalf("%s: run of %d segments, want %d", name, got, wantRun)
			}
		}
		// A young pair in every slot: the sweep must forward fields in the
		// head segment and in the continuation alike.
		for _, name := range []string{"exact", "over"} {
			for i := 0; i < h.VectorLength(roots[name].Get()); i++ {
				h.VectorSet(roots[name].Get(), i, h.Cons(fix(i), obj.Nil))
			}
		}
		check := func() {
			t.Helper()
			for name, n := range map[string]int{"exact": exact, "over": over} {
				v := roots[name].Get()
				if h.VectorLength(v) != n {
					t.Fatalf("%s: length %d, want %d", name, h.VectorLength(v), n)
				}
				for i := 0; i < n; i++ {
					if p := h.VectorRef(v, i); !p.IsPair() || h.Car(p) != fix(i) {
						t.Fatalf("%s[%d] = %v", name, i, p)
					}
				}
			}
			for i, want := range elems {
				if got := h.VectorRef(roots["vector"].Get(), i); got != want {
					t.Fatalf("vector[%d] = %v, want %v", i, got, want)
				}
			}
			rec := roots["record"].Get()
			if h.RecordRTD(rec) != fix(7) || h.RecordLength(rec) != over+5 {
				t.Fatalf("record rtd %v length %d", h.RecordRTD(rec), h.RecordLength(rec))
			}
			for i := 0; i < over+5; i++ {
				if got := h.RecordRef(rec, i); got != obj.False {
					t.Fatalf("record field %d = %v, want #f", i, got)
				}
			}
			if got := h.StringValue(roots["string"].Get()); got != text {
				t.Fatalf("large string corrupted (%d bytes, want %d)", len(got), len(text))
			}
			if got := h.StringValue(roots["short"].Get()); got != "nine byte" {
				t.Fatalf("short string %q", got)
			}
		}
		check()
		h.MustVerify()
		h.Collect(0)
		h.MustVerify()
		check()
		h.Collect(1)
		h.MustVerify()
		check()
	})
}

// templateChecksum hashes every word array of the template.
func templateChecksum(tpl *Template) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for i := range tpl.segs {
		for _, w := range tpl.segs[i].Words {
			for j := range b {
				b[j] = byte(w >> (8 * j))
			}
			f.Write(b[:])
		}
	}
	return f.Sum64()
}

// TestCloneForwardLeavesTemplateIntact runs a full collection in a
// clone: every live object is forwarded out of a segment shared with
// the template, so forward privatizes each such segment once and
// installs the forwarding words in the private copy. The template's
// arrays must stay byte-identical and a second clone must still read
// the donor's state.
func TestCloneForwardLeavesTemplateIntact(t *testing.T) {
	oneCopier(t, func(t *testing.T, donor *Heap) {
		lst := donor.NewRoot(obj.Nil)
		for i := 0; i < 3000; i++ {
			lst.Set(donor.Cons(fix(i), lst.Get()))
		}
		vec := donor.NewRoot(donor.MakeVector(seg.Words+10, obj.Nil)) // a shared large-object run
		for i := 0; i < seg.Words+10; i++ {
			donor.VectorSet(vec.Get(), i, donor.MakeString(fmt.Sprint("s", i)))
		}
		weak := donor.NewRoot(donor.WeakCons(lst.Get(), obj.Nil))
		donor.Collect(0)
		donor.Collect(1)
		tpl, err := donor.CaptureTemplate()
		if err != nil {
			t.Fatal(err)
		}
		sum := templateChecksum(tpl)
		check := func(t *testing.T, h *Heap, roots []*Root) {
			t.Helper()
			p := roots[lst.idx].Get()
			for i := 2999; i >= 0; i-- {
				if h.Car(p) != fix(i) {
					t.Fatalf("list element %v, want %d", h.Car(p), i)
				}
				p = h.Cdr(p)
			}
			for i := 0; i < seg.Words+10; i++ {
				if got := h.StringValue(h.VectorRef(roots[vec.idx].Get(), i)); got != fmt.Sprint("s", i) {
					t.Fatalf("vector[%d] = %q", i, got)
				}
			}
			if h.Car(roots[weak.idx].Get()) != roots[lst.idx].Get() {
				t.Fatal("weak car lost its live referent")
			}
		}
		h, roots, err := CloneFromTemplate(tpl)
		if err != nil {
			t.Fatal(err)
		}
		shared := h.SharedSegments()
		if shared != tpl.Segments() {
			t.Fatalf("clone shares %d segments, template has %d", shared, tpl.Segments())
		}
		check(t, h, roots)
		if h.COWCopies() != 0 {
			t.Fatalf("reads faulted %d segments", h.COWCopies())
		}
		h.Collect(h.MaxGeneration())
		h.MustVerify()
		if h.SharedSegments() != 0 || h.COWCopies() > uint64(shared) {
			t.Fatalf("after the full collection: %d still shared, %d copies of %d segments",
				h.SharedSegments(), h.COWCopies(), shared)
		}
		check(t, h, roots)
		if got := templateChecksum(tpl); got != sum {
			t.Fatalf("template arrays changed: checksum %x, was %x", got, sum)
		}
		h2, roots2, err := CloneFromTemplate(tpl)
		if err != nil {
			t.Fatal(err)
		}
		check(t, h2, roots2)
		h2.MustVerify()
	})
}

// TestVerifyCatchesStaleCursor plants the two ways a cursor can go
// stale — its segment freed under it, and its offset out of step with
// the segment's Fill — and checks invariant 10 reports them.
func TestVerifyCatchesStaleCursor(t *testing.T) {
	h := NewDefault()
	h.Cons(fix(1), obj.Nil)
	h.MustVerify()
	cur := &h.cur[seg.SpacePair][0]
	cur.off += 2
	if errs := h.Verify(); len(errs) == 0 || !strings.Contains(errs[0].Error(), "cursor") {
		t.Fatalf("offset/Fill mismatch not reported: %v", errs)
	}
	cur.off -= 2
	h.cur[seg.SpaceObj][0] = cursor{seg: cur.seg, s: h.tab.Seg(cur.seg), off: cur.off}
	if errs := h.Verify(); len(errs) == 0 || !strings.Contains(errs[0].Error(), "cursor") {
		t.Fatalf("cursor on another space's segment not reported: %v", errs)
	}
	h.cur[seg.SpaceObj][0].close()
	h.MustVerify()
}

// TestCloneStaticTemplateAndPool is the clone family at work: the donor
// tenures its state into the static generation of a StaticTop heap, two
// clones churn through automatic collections, and throughout (a) no
// clone ever faults on — or stops sharing — a template segment, (b) a
// clone's retired segments are bare slots, their arrays parked in the
// template's pool, all zero, never more than the cap, and Verify
// accepts the bare slots, (c) the template's arrays stay byte-identical.
func TestCloneStaticTemplateAndPool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = StaticTop(RadixPolicy{Trigger: 4 * seg.Words})
	donor := MustNew(cfg)
	lst := donor.NewRoot(obj.Nil)
	for i := 0; i < 2000; i++ {
		lst.Set(donor.Cons(fix(i), lst.Get()))
	}
	str := donor.NewRoot(donor.MakeString("tenured"))
	if rep := donor.Collect(donor.MaxGeneration()); rep.Target != donor.MaxGeneration() {
		t.Fatalf("donor's full collection targeted generation %d", rep.Target)
	}
	tpl, err := donor.CaptureTemplate()
	if err != nil {
		t.Fatal(err)
	}
	sum := templateChecksum(tpl)

	churn := func(t *testing.T, h *Heap, roots []*Root) {
		t.Helper()
		keep := h.NewRoot(obj.Nil)
		for i := 0; i < 30000; i++ {
			p := h.Cons(fix(i), h.MakeString("x"))
			if i%64 == 0 {
				keep.Set(h.Cons(p, keep.Get()))
			}
			if i%2048 == 0 {
				keep.Set(obj.Nil)
			}
			if h.CollectPending() {
				h.Checkpoint()
				for idx := 0; idx < h.tab.Len(); idx++ {
					if s := h.tab.Seg(idx); !s.InUse && s.Words != nil {
						t.Fatalf("retired segment %d keeps its word array", idx)
					}
				}
			}
		}
		h.Collect(0) // park with the nursery's arrays in the pool
		h.MustVerify()
		if h.Stats.Collections < 40 {
			t.Fatalf("only %d collections", h.Stats.Collections)
		}
		if h.SharedSegments() != tpl.Segments() || h.COWCopies() != 0 {
			t.Fatalf("clone shares %d of %d template segments after %d copy-on-write faults",
				h.SharedSegments(), tpl.Segments(), h.COWCopies())
		}
		if got := h.StringValue(roots[str.idx].Get()); got != "tenured" || h.ListLength(roots[lst.idx].Get()) != 2000 {
			t.Fatalf("template state damaged: %q", got)
		}
	}
	// poolAllZero drains the pool through a scratch table of the family
	// and looks at every array.
	poolAllZero := func() {
		t.Helper()
		n := tpl.pool.Len()
		if n == 0 || n > seg.PoolCap {
			t.Fatalf("pool holds %d arrays (cap %d)", n, seg.PoolCap)
		}
		scratch := seg.NewTableFromSegs(nil, false, tpl.pool)
		for ; n > 0; n-- {
			for i, x := range scratch.Seg(scratch.Alloc(seg.SpacePair, 0, 1)).Words {
				if x != 0 {
					t.Fatalf("pooled array holds %#x at word %d", x, i)
				}
			}
		}
	}
	for i := 0; i < 2; i++ {
		h, roots, err := CloneFromTemplate(tpl)
		if err != nil {
			t.Fatal(err)
		}
		churn(t, h, roots)
		poolAllZero()
	}
	if got := templateChecksum(tpl); got != sum {
		t.Fatalf("template arrays changed: checksum %x, was %x", got, sum)
	}
}
