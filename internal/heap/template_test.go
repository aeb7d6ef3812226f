package heap_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// Tests for heap templates (CaptureTemplate / CloneFromTemplate): the
// in-memory, copy-on-write counterpart of SaveImage/LoadImage. The
// acceptance bar: a clone is observationally identical to its donor —
// same structure, same remembered-set behaviour, and bit-for-bit the
// same guardian salvage order — while sharing segments with the template until first write and never
// writing through to it.

// templateDonor bundles the root handles of the donor heap built by
// buildTemplateDonor, in slot order (the clone's inherited handles use
// the same indexes).
const (
	tplSlotSpine = iota // gen-2 spine whose cars strongly hold young pairs
	tplSlotWeak         // gen-2 weak pair -> young referent (a marked weak segment)
	tplSlotTc1          // guardian tconc 1 (holds pre-captured pending items)
	tplSlotTc2          // guardian tconc 2
	tplSlotHold         // list keeping the still-live guarded objects alive
	tplSlots
)

// buildTemplateDonor builds a donor heap in a known rich state: a
// populated remembered set, a pair segment and a weak segment marked
// through strong cars and a weak car, two live guardians — one with
// items already salvaged onto its tconc and pending retrieval at
// capture time — and guarded objects still alive (some registered with
// both guardians).
func buildTemplateDonor(t *testing.T, workers int) (*heap.Heap, []*heap.Root) {
	t.Helper()
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	cfg.Workers = workers
	h := heap.MustNew(cfg)

	roots := make([]*heap.Root, tplSlots)
	const spineLen = 12
	roots[tplSlotSpine] = h.NewRoot(func() obj.Value {
		var l obj.Value = obj.Nil
		for i := 0; i < spineLen; i++ {
			l = h.Cons(obj.False, l)
		}
		return l
	}())
	roots[tplSlotWeak] = h.NewRoot(h.WeakCons(obj.Nil, obj.Nil))
	roots[tplSlotTc1] = h.NewRoot(makeTconc(h))
	roots[tplSlotTc2] = h.NewRoot(makeTconc(h))
	roots[tplSlotHold] = h.NewRoot(obj.Nil)

	// Guarded objects that die before capture: the collections below
	// salvage them onto tconc 1, so the template carries a guardian with
	// pending (undrained) tconc items.
	for i := 0; i < 4; i++ {
		h.InstallGuardian(h.Cons(fx(int64(100+i)), obj.Nil), roots[tplSlotTc1].Get())
	}
	h.Collect(0)
	h.Collect(1) // tenure spine, weak pair, and tconcs to generation 2

	// Guarded objects that stay alive across capture; every other one is
	// registered with both guardians.
	var lst obj.Value = obj.Nil
	for i := 0; i < 6; i++ {
		p := h.Cons(fx(int64(200+i)), obj.Nil)
		h.InstallGuardian(p, roots[tplSlotTc1].Get())
		if i%2 == 0 {
			h.InstallGuardian(p, roots[tplSlotTc2].Get())
		}
		lst = h.Cons(p, lst)
	}
	roots[tplSlotHold].Set(lst)

	// Remembered set: dirty every tenured spine car with a distinct
	// young pair (a marked pair segment), and point the tenured weak car
	// at the youngest of them (a marked weak segment).
	i := 0
	for v := roots[tplSlotSpine].Get(); v.IsPair(); v = h.Cdr(v) {
		h.SetCar(v, h.Cons(fx(int64(i)), obj.Nil))
		i++
	}
	h.SetCar(roots[tplSlotWeak].Get(), h.Car(roots[tplSlotSpine].Get()))

	if h.DirtyCount() < 2 {
		t.Fatalf("setup: DirtyCount %d, want the spine's and the weak pair's segments", h.DirtyCount())
	}
	if h.ProtectedCount() != 9 {
		t.Fatalf("setup: ProtectedCount %d, want 9", h.ProtectedCount())
	}
	return h, roots
}

// driveGuardians runs the identical post-boot script on a heap built
// (or cloned) from buildTemplateDonor state and returns the full
// guardian retrieval order: drain the pre-captured pending items, kill
// the live guarded objects, collect everything, drain both tconcs,
// then sever the strong remset path and check the weak entry breaks.
// Two heaps in identical states must return identical sequences.
func driveGuardians(t *testing.T, h *heap.Heap, roots []*heap.Root) []int64 {
	t.Helper()
	var out []int64
	drain := func(tag int64, tc obj.Value) {
		for {
			v, ok := tconcGet(h, tc)
			if !ok {
				return
			}
			out = append(out, tag*1000+h.Car(v).FixnumValue())
		}
	}
	drain(1, roots[tplSlotTc1].Get()) // items pending since before capture
	roots[tplSlotHold].Set(obj.Nil)
	h.Collect(h.MaxGeneration())
	drain(1, roots[tplSlotTc1].Get())
	drain(2, roots[tplSlotTc2].Get())
	// The weak referent is still strongly held via the spine cell.
	if h.Car(roots[tplSlotWeak].Get()) == obj.False {
		t.Fatal("weak car broken while its referent is strongly held")
	}
	for v := roots[tplSlotSpine].Get(); v.IsPair(); v = h.Cdr(v) {
		h.SetCar(v, obj.Nil)
	}
	h.Collect(h.MaxGeneration())
	if h.Car(roots[tplSlotWeak].Get()) != obj.False {
		t.Fatal("weak car not broken after its referent died")
	}
	h.MustVerify()
	return out
}

// TestTemplateCloneMatrix is the round-trip matrix: capture a donor
// with a populated remembered set (pair and weak segments marked) and live
// guardians with pending tconc items, clone it, and run the identical
// guardian/collection script on donor and clone, at both
// Config.Workers values Validate accepts (1 and unset; each is the one
// copier). The clone's salvage order must be bit-for-bit the donor's —
// the donor IS the prelude-booted heap the clone claims to be a copy
// of. The subtests keep the names they had when the matrix also ran
// sliced collections; "budget=0s" is every collection now.
func TestTemplateCloneMatrix(t *testing.T) {
	for _, w := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d,budget=0s", w), func(t *testing.T) {
			donor, droots := buildTemplateDonor(t, w)
			tpl, err := donor.CaptureTemplate()
			if err != nil {
				t.Fatal(err)
			}
			if tpl.Segments() == 0 {
				t.Fatal("template captured no segments")
			}
			clone, croots, err := heap.CloneFromTemplate(tpl)
			if err != nil {
				t.Fatal(err)
			}
			if clone.SharedSegments() == 0 {
				t.Fatal("clone shares no segments with the template")
			}
			if clone.DirtyCount() != donor.DirtyCount() {
				t.Fatalf("clone DirtyCount %d, donor %d", clone.DirtyCount(), donor.DirtyCount())
			}
			if clone.ProtectedCount() != donor.ProtectedCount() {
				t.Fatalf("clone ProtectedCount %d, donor %d", clone.ProtectedCount(), donor.ProtectedCount())
			}

			cloneSeq := driveGuardians(t, clone, croots)
			donorSeq := driveGuardians(t, donor, droots)
			if len(donorSeq) != 4+6+3 {
				t.Fatalf("donor retrieved %d guarded objects (%v), want 13", len(donorSeq), donorSeq)
			}
			pre := map[int64]bool{}
			for _, v := range donorSeq[:4] {
				pre[v] = true
			}
			for i := int64(100); i < 104; i++ {
				if !pre[1000+i] {
					t.Fatalf("pre-captured pending item %d not drained first (%v)", i, donorSeq[:4])
				}
			}
			if len(cloneSeq) != len(donorSeq) {
				t.Fatalf("salvage order diverged: clone %v, donor %v", cloneSeq, donorSeq)
			}
			for i := range donorSeq {
				if cloneSeq[i] != donorSeq[i] {
					t.Fatalf("salvage order diverged at %d: clone %v, donor %v", i, cloneSeq, donorSeq)
				}
			}
		})
	}
}

// TestTemplateCOWSemantics pins the copy-on-write mechanics: reads
// never privatize, the first write to a shared segment copies exactly
// that segment, later writes to it are free, and neither the template
// nor sibling clones nor the donor observe a clone's writes.
func TestTemplateCOWSemantics(t *testing.T) {
	h := heap.NewDefault()
	r := h.NewRoot(h.Cons(fx(1), obj.Nil))
	h.Collect(h.MaxGeneration())
	tpl, err := h.CaptureTemplate()
	if err != nil {
		t.Fatal(err)
	}
	c1, r1, err := heap.CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	c2, r2, err := heap.CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	shared0 := c1.SharedSegments()
	if shared0 == 0 {
		t.Fatal("clone shares no segments")
	}
	if got := c1.Car(r1[0].Get()).FixnumValue(); got != 1 {
		t.Fatalf("clone reads %d, want 1", got)
	}
	if c1.COWCopies() != 0 {
		t.Fatalf("reading privatized %d segments", c1.COWCopies())
	}
	c1.SetCar(r1[0].Get(), fx(42))
	if c1.COWCopies() != 1 {
		t.Fatalf("first write privatized %d segments, want exactly 1", c1.COWCopies())
	}
	if c1.SharedSegments() != shared0-1 {
		t.Fatalf("SharedSegments %d after first write, want %d", c1.SharedSegments(), shared0-1)
	}
	c1.SetCar(r1[0].Get(), fx(43))
	if c1.COWCopies() != 1 {
		t.Fatalf("second write to a private segment copied again (%d copies)", c1.COWCopies())
	}
	// Isolation: the write is invisible everywhere but c1.
	if got := c2.Car(r2[0].Get()).FixnumValue(); got != 1 {
		t.Fatalf("sibling clone sees %d, want 1", got)
	}
	if got := h.Car(r.Get()).FixnumValue(); got != 1 {
		t.Fatalf("donor sees %d, want 1", got)
	}
	c1.MustVerify()
	c2.MustVerify()
	h.MustVerify()
}

// TestCloneFreeSharedKeepsTemplate: a clone that collects everything
// frees its shared from-space segments by dropping the alias — the
// template's word arrays must never be zeroed, so later clones boot
// from intact state.
func TestCloneFreeSharedKeepsTemplate(t *testing.T) {
	h := heap.NewDefault()
	h.NewRoot(h.MakeString("template payload"))
	h.NewRoot(h.List(fx(1), fx(2), fx(3)))
	h.Collect(h.MaxGeneration())
	tpl, err := h.CaptureTemplate()
	if err != nil {
		t.Fatal(err)
	}

	c1, r1, err := heap.CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range r1 {
		r.Release()
	}
	c1.Collect(c1.MaxGeneration()) // everything dies; shared segments freed or privatized
	if c1.SharedSegments() != 0 {
		t.Fatalf("%d shared segments survive a full collection with no live data", c1.SharedSegments())
	}
	c1.MustVerify()

	// A later clone still sees the template bit-for-bit.
	c2, r2, err := heap.CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.StringValue(r2[0].Get()); got != "template payload" {
		t.Fatalf("template damaged by earlier clone: string %q", got)
	}
	if got := c2.Car(c2.Cdr(r2[1].Get())).FixnumValue(); got != 2 {
		t.Fatalf("template damaged by earlier clone: list element %d", got)
	}
	c2.Collect(c2.MaxGeneration())
	c2.MustVerify()
}

// TestCloneRootSlots mirrors TestHeapImageReleasedRootSlotsStayFree
// for the template path: released donor slots come back dead (nil
// handle) and reusable on the clone.
func TestCloneRootSlots(t *testing.T) {
	h := heap.NewDefault()
	a := h.NewRoot(fx(1))
	b := h.NewRoot(fx(2))
	a.Release()
	tpl, err := h.CaptureTemplate()
	if err != nil {
		t.Fatal(err)
	}
	_ = b
	c, roots, err := heap.CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if roots[0] != nil {
		t.Fatal("released slot cloned as live")
	}
	if roots[1] == nil || roots[1].Get().FixnumValue() != 2 {
		t.Fatal("live slot not cloned")
	}
	if v := c.NewRoot(fx(3)); v.Get().FixnumValue() != 3 {
		t.Fatal("slot reuse broken on clone")
	}
	c.MustVerify()
}

// listLen counts the spine of the rooted test list.
func listLen(h *heap.Heap, v obj.Value) int {
	n := 0
	for v.IsPair() {
		n++
		v = h.Cdr(v)
	}
	return n
}

// TestSaveAndCaptureDuringCollection pins the mid-collection guard:
// from a post-collect hook, where from-space is not yet freed, both
// SaveImage and CaptureTemplate must fail cleanly rather than
// serialize a half-forwarded heap, and the collection must then
// complete exactly as if nothing had been attempted.
func TestSaveAndCaptureDuringCollection(t *testing.T) {
	h := heap.NewDefault()
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 20000; i++ {
		p := h.Cons(fx(int64(i)), obj.Nil)
		lst.Set(h.Cons(p, lst.Get()))
		if i%16 == 0 {
			lst.Set(h.Cons(h.WeakCons(p, obj.Nil), lst.Get()))
		}
	}
	h.Collect(0) // promote the list to generation 1
	before := listLen(h, lst.Get())
	var saveErr, capErr error
	hooks := 0
	h.AddPostCollectHook(func(hh *heap.Heap, _ *heap.CollectionReport) {
		if hooks == 0 {
			var buf bytes.Buffer
			saveErr = hh.SaveImage(&buf)
			_, capErr = hh.CaptureTemplate()
		}
		hooks++
	})
	h.Collect(1)
	if hooks != 1 {
		t.Fatalf("post-collect hook ran %d times, want 1", hooks)
	}
	for _, err := range []error{saveErr, capErr} {
		if err == nil || !strings.Contains(err.Error(), "during a collection") {
			t.Fatalf("save or capture from a post-collect hook: got %v, want a during-a-collection error", err)
		}
	}
	if got := listLen(h, lst.Get()); got != before {
		t.Fatalf("list length %d after collection, want %d: the failed save disturbed the collection", got, before)
	}
	h.MustVerify()
	// With the collection finished, both operations work again.
	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		t.Fatalf("SaveImage after the collection: %v", err)
	}
	if _, _, err := heap.LoadImage(&buf); err != nil {
		t.Fatalf("LoadImage of the post-collection save: %v", err)
	}
	if _, err := h.CaptureTemplate(); err != nil {
		t.Fatalf("CaptureTemplate after the collection: %v", err)
	}
}

// TestImageEqualsClone: an image and a template are one path. A heap
// loaded from a donor's image and a clone of the donor's template have
// the same segments (space, generation, fill, stamp, words), root
// slots, protected lists and remembered-set size, and the same
// mutation-and-collection trace retrieves the same tconc contents, in
// the same order, from both.
func TestImageEqualsClone(t *testing.T) {
	donor, _ := buildTemplateDonor(t, 0)
	var img bytes.Buffer
	if err := donor.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	tpl, err := donor.CaptureTemplate()
	if err != nil {
		t.Fatal(err)
	}
	loaded, lroots, err := heap.LoadImage(&img)
	if err != nil {
		t.Fatal(err)
	}
	clone, croots, err := heap.CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	got, want := heap.ImageState(loaded), heap.ImageState(clone)
	if len(got) != len(want) {
		t.Fatalf("loaded heap has %d state lines, clone %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("loaded heap and clone differ:\n loaded %.200s\n clone  %.200s", got[i], want[i])
		}
	}
	gotOrder, wantOrder := driveGuardians(t, loaded, lroots), driveGuardians(t, clone, croots)
	if fmt.Sprint(gotOrder) != fmt.Sprint(wantOrder) || len(wantOrder) == 0 {
		t.Fatalf("tconc contents: loaded %v, clone %v", gotOrder, wantOrder)
	}
}

// TestImageKeepsPolicyCadence: an image carries the live trigger and
// the radix, so a heap tuned by AdaptivePolicy resumes from its tuned
// trigger and a RadixPolicy heap keeps its radix.
func TestImageKeepsPolicyCadence(t *testing.T) {
	roundTrip := func(h *heap.Heap) *heap.Heap {
		t.Helper()
		var img bytes.Buffer
		if err := h.SaveImage(&img); err != nil {
			t.Fatal(err)
		}
		h2, _, err := heap.LoadImage(&img)
		if err != nil {
			t.Fatal(err)
		}
		return h2
	}
	cfg := heap.DefaultConfig()
	cfg.Policy = &heap.AdaptivePolicy{}
	tuned := heap.MustNew(cfg)
	start := tuned.TriggerWords()
	for i := 0; i < 12; i++ {
		churn(tuned, 3000)
		tuned.Collect(0)
	}
	if tuned.TriggerWords() == start {
		t.Fatalf("setup: the adaptive trigger stayed at %d", start)
	}
	if got := roundTrip(tuned).TriggerWords(); got != tuned.TriggerWords() {
		t.Fatalf("loaded trigger %d, want the tuned %d", got, tuned.TriggerWords())
	}

	radix := heap.MustNew(heap.Config{Generations: 4, Policy: heap.RadixPolicy{Trigger: 5000, Radix: 3}, UseDirtySet: true})
	rp, ok := roundTrip(radix).Policy().(heap.RadixPolicy)
	if !ok || rp.Radix != 3 || rp.Trigger != 5000 {
		t.Fatalf("loaded policy %#v, want RadixPolicy{Trigger: 5000, Radix: 3}", roundTrip(radix).Policy())
	}
}

// reload saves h as an image and loads it back.
func reload(t *testing.T, h *heap.Heap) *heap.Heap {
	t.Helper()
	var img bytes.Buffer
	if err := h.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	h2, _, err := heap.LoadImage(&img)
	if err != nil {
		t.Fatal(err)
	}
	return h2
}

// TestImageKeepsStaticTop: an image records StaticTop and its inner
// radix, so a loaded heap, like its donor and a clone, holds the
// oldest generation static instead of collecting and promoting into it.
func TestImageKeepsStaticTop(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.StaticTop(heap.RadixPolicy{Trigger: 8 * 512, Radix: 3})
	donor := heap.MustNew(cfg)
	r := donor.NewRoot(donor.Cons(fx(1), obj.Nil))
	donor.Collect(donor.MaxGeneration())
	tpl, err := donor.CaptureTemplate()
	if err != nil {
		t.Fatal(err)
	}
	clone, _, err := heap.CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	loaded := reload(t, donor)
	for name, h := range map[string]*heap.Heap{"donor": donor, "clone": clone, "loaded": loaded} {
		p := h.Policy()
		if p.Name() != "static-top+radix" || p.CollectGen(9, h.MaxGeneration()) != 2 || h.OldestDynamic() != 2 {
			t.Errorf("%s: policy %s, cadence at 9 %d, oldest dynamic generation %d; want static-top+radix, 2, 2",
				name, p.Name(), p.CollectGen(9, h.MaxGeneration()), h.OldestDynamic())
		}
	}
	census := loaded.Census()
	static := census.Gen(3).Segments
	for i := 0; i < 4*27; i++ {
		loaded.CollectAuto()
	}
	rep := loaded.Collect(2)
	if census = loaded.Census(); rep.Target != 2 || census.Gen(3).Segments != static {
		t.Fatalf("the loaded heap promoted into its static generation (target %d)", rep.Target)
	}
	r.Release()
	loaded.MustVerify()
}
