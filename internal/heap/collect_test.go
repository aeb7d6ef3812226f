package heap_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/seg"
)

// makeTconc builds an empty tconc (Figure 2): a header pair whose car
// and cdr both point at a single don't-care pair.
func makeTconc(h *heap.Heap) obj.Value {
	dummy := h.Cons(obj.False, obj.False)
	return h.Cons(dummy, dummy)
}

// tconcGet performs the mutator side of the tconc protocol (Figure 4).
func tconcGet(h *heap.Heap, tc obj.Value) (obj.Value, bool) {
	if h.Car(tc) == h.Cdr(tc) {
		return obj.False, false
	}
	x := h.Car(tc)
	y := h.Car(x)
	h.SetCar(tc, h.Cdr(x))
	h.SetCar(x, obj.False)
	h.SetCdr(x, obj.False)
	return y, true
}

func TestCollectPreservesRootedStructure(t *testing.T) {
	h := heap.NewDefault()
	inner := h.Cons(obj.FromFixnum(2), obj.Nil)
	outer := h.Cons(obj.FromFixnum(1), inner)
	v := h.Vector(outer, inner, h.MakeString("hello"))
	r := h.NewRoot(v)
	h.Collect(0)
	v = r.Get()
	outer = h.VectorRef(v, 0)
	if h.Car(outer).FixnumValue() != 1 {
		t.Fatal("outer car lost")
	}
	if h.Car(h.Cdr(outer)).FixnumValue() != 2 {
		t.Fatal("inner car lost")
	}
	// Sharing must be preserved: vector slot 1 is the same pair as
	// outer's cdr.
	if h.Cdr(outer) != h.VectorRef(v, 1) {
		t.Fatal("sharing broken by collection")
	}
	if h.StringValue(h.VectorRef(v, 2)) != "hello" {
		t.Fatal("string lost")
	}
}

func TestCollectDropsGarbage(t *testing.T) {
	h := heap.NewDefault()
	r := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	for i := 0; i < 10000; i++ {
		h.Cons(obj.FromFixnum(int64(i)), obj.Nil) // garbage
	}
	before := h.SegmentsInUse()
	h.Collect(0)
	after := h.SegmentsInUse()
	if after >= before {
		t.Fatalf("garbage not reclaimed: %d segments before, %d after", before, after)
	}
	if h.Car(r.Get()).FixnumValue() != 1 {
		t.Fatal("rooted value lost")
	}
}

func TestPromotionThroughGenerations(t *testing.T) {
	h := heap.NewDefault()
	r := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	if g := h.Generation(r.Get()); g != 0 {
		t.Fatalf("fresh object in generation %d", g)
	}
	h.Collect(0)
	if g := h.Generation(r.Get()); g != 1 {
		t.Fatalf("after collect(0), generation = %d, want 1", g)
	}
	h.Collect(0)
	if g := h.Generation(r.Get()); g != 1 {
		t.Fatalf("gen-1 object moved by collect(0): generation = %d", g)
	}
	h.Collect(1)
	if g := h.Generation(r.Get()); g != 2 {
		t.Fatalf("after collect(1), generation = %d, want 2", g)
	}
	h.Collect(2)
	h.Collect(3)
	if g := h.Generation(r.Get()); g != 3 {
		t.Fatalf("object should cap at oldest generation, got %d", g)
	}
	// Oldest generation collects into itself.
	h.Collect(3)
	if g := h.Generation(r.Get()); g != 3 {
		t.Fatalf("oldest generation self-collection moved object to %d", g)
	}
	if h.Car(r.Get()).FixnumValue() != 1 {
		t.Fatal("value lost during promotions")
	}
}

func TestCyclicStructureSurvives(t *testing.T) {
	h := heap.NewDefault()
	a := h.Cons(obj.FromFixnum(1), obj.Nil)
	b := h.Cons(obj.FromFixnum(2), a)
	h.SetCdr(a, b) // cycle a <-> b
	r := h.NewRoot(a)
	h.Collect(0)
	a = r.Get()
	b = h.Cdr(a)
	if h.Car(a).FixnumValue() != 1 || h.Car(b).FixnumValue() != 2 {
		t.Fatal("cycle contents lost")
	}
	if h.Cdr(b) != a {
		t.Fatal("cycle identity broken")
	}
}

func TestOldToYoungPointerViaDirtySet(t *testing.T) {
	h := heap.NewDefault()
	old := h.NewRoot(h.Cons(obj.False, obj.Nil))
	h.Collect(0)
	h.Collect(1) // old now in generation 2
	if g := h.Generation(old.Get()); g != 2 {
		t.Fatalf("setup: generation = %d", g)
	}
	young := h.Cons(obj.FromFixnum(42), obj.Nil)
	h.SetCar(old.Get(), young) // creates old-to-young pointer
	h.Collect(0)               // young must survive via the dirty set
	got := h.Car(old.Get())
	if !got.IsPair() || h.Car(got).FixnumValue() != 42 {
		t.Fatal("young object referenced only from old generation was lost")
	}
	if h.Generation(got) < 1 {
		t.Fatal("young object was not promoted")
	}
}

func TestDirtySetShrinks(t *testing.T) {
	h := heap.NewDefault()
	old := h.NewRoot(h.Cons(obj.False, obj.Nil))
	h.Collect(0)
	h.Collect(1)
	h.SetCar(old.Get(), h.Cons(obj.FromFixnum(1), obj.Nil))
	if h.DirtyCount() == 0 {
		t.Fatal("barrier did not record old-generation write")
	}
	// After enough collections the referent reaches the same
	// generation as the cell and the entry is retired.
	h.Collect(0)
	h.Collect(1)
	if h.DirtyCount() != 0 {
		t.Fatalf("dirty set not retired: %d entries", h.DirtyCount())
	}
	// And the pointer is still intact.
	if h.Car(h.Car(old.Get())).FixnumValue() != 1 {
		t.Fatal("referent lost while retiring dirty entry")
	}
}

func TestWeakPairBreaksOnDeath(t *testing.T) {
	h := heap.NewDefault()
	w := h.NewRoot(h.WeakCons(h.Cons(obj.FromFixnum(1), obj.Nil), obj.FromFixnum(99)))
	h.Collect(0)
	if got := h.Car(w.Get()); got != obj.False {
		t.Fatalf("weak car not broken: %v", got)
	}
	if h.Cdr(w.Get()).FixnumValue() != 99 {
		t.Fatal("weak cdr must be a strong pointer")
	}
}

func TestWeakPairKeepsLiveReferent(t *testing.T) {
	h := heap.NewDefault()
	strong := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	w := h.NewRoot(h.WeakCons(strong.Get(), obj.Nil))
	h.Collect(0)
	got := h.Car(w.Get())
	if got != strong.Get() {
		t.Fatal("weak car should follow the moved referent")
	}
	if h.Car(got).FixnumValue() != 1 {
		t.Fatal("weak referent contents lost")
	}
}

func TestWeakPairImmediateCarUntouched(t *testing.T) {
	h := heap.NewDefault()
	w := h.NewRoot(h.WeakCons(obj.FromFixnum(5), obj.Nil))
	h.Collect(0)
	if h.Car(w.Get()).FixnumValue() != 5 {
		t.Fatal("immediate weak car must never be broken")
	}
}

func TestWeakCarToOlderGenerationSurvives(t *testing.T) {
	h := heap.NewDefault()
	oldObj := h.NewRoot(h.Cons(obj.FromFixnum(7), obj.Nil))
	h.Collect(0)
	h.Collect(1) // referent now in generation 2
	w := h.NewRoot(h.WeakCons(oldObj.Get(), obj.Nil))
	h.Collect(0)
	if h.Car(w.Get()) != oldObj.Get() {
		t.Fatal("weak car to older generation must survive a young collection")
	}
}

func TestWeakCarMutatedInOldGeneration(t *testing.T) {
	// A weak pair promoted to an old generation whose car is then
	// mutated to point at a young object: the dirty set must hand the
	// cell to the weak pass, which breaks it when the referent dies.
	h := heap.NewDefault()
	w := h.NewRoot(h.WeakCons(obj.False, obj.Nil))
	h.Collect(0)
	h.Collect(1) // weak pair now in generation 2
	h.SetCar(w.Get(), h.Cons(obj.FromFixnum(1), obj.Nil))
	h.Collect(0)
	if got := h.Car(w.Get()); got != obj.False {
		t.Fatalf("dead young referent in old weak pair not broken: %v", got)
	}
	// Same again, but keep the referent alive through a root: the car
	// must be updated, not broken.
	keep := h.NewRoot(h.Cons(obj.FromFixnum(2), obj.Nil))
	h.SetCar(w.Get(), keep.Get())
	h.Collect(0)
	if h.Car(w.Get()) != keep.Get() {
		t.Fatal("live young referent in old weak pair not forwarded")
	}
}

func TestGuardianLowLevelSalvage(t *testing.T) {
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	p := h.Cons(obj.FromFixnum(11), obj.FromFixnum(22))
	h.InstallGuardian(p, tc.Get())
	// p is unreachable from roots; the collection must salvage it onto
	// the tconc rather than reclaim it.
	h.Collect(0)
	got, ok := tconcGet(h, tc.Get())
	if !ok {
		t.Fatal("salvaged object not on tconc")
	}
	if h.Car(got).FixnumValue() != 11 || h.Cdr(got).FixnumValue() != 22 {
		t.Fatal("salvaged object corrupted")
	}
	if _, ok := tconcGet(h, tc.Get()); ok {
		t.Fatal("tconc should now be empty")
	}
}

func TestGuardianAccessibleObjectNotEnqueued(t *testing.T) {
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	keep := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	h.InstallGuardian(keep.Get(), tc.Get())
	byGen := append([]int(nil), h.Collect(0).ProtectedByGen...)
	if _, ok := tconcGet(h, tc.Get()); ok {
		t.Fatal("accessible object must not be enqueued")
	}
	if h.ProtectedCount() != 1 {
		t.Fatalf("protected entry should persist, count=%d", h.ProtectedCount())
	}
	// Entry must have migrated to the target generation's list.
	if byGen[1] != 1 {
		t.Fatalf("entry should live in generation 1's protected list: %v", byGen)
	}
	// Drop the object; next collection of its generation salvages it.
	keep.Release()
	h.Collect(1)
	if got, ok := tconcGet(h, tc.Get()); !ok || h.Car(got).FixnumValue() != 1 {
		t.Fatal("object not salvaged after its generation was collected")
	}
}

func TestGuardianDroppedCancelsFinalization(t *testing.T) {
	h := heap.NewDefault()
	tc := makeTconc(h) // never rooted: the guardian is dropped
	p := h.Cons(obj.FromFixnum(1), obj.Nil)
	h.InstallGuardian(p, tc)
	h.Collect(0)
	if h.ProtectedCount() != 0 {
		t.Fatal("entries of a dead guardian must be discarded")
	}
	if h.Stats.GuardianEntriesDropped != 1 {
		t.Fatalf("GuardianEntriesDropped = %d, want 1", h.Stats.GuardianEntriesDropped)
	}
}

func TestGuardianMultipleRegistrations(t *testing.T) {
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	p := h.Cons(obj.FromFixnum(1), obj.Nil)
	h.InstallGuardian(p, tc.Get())
	h.InstallGuardian(p, tc.Get())
	h.Collect(0)
	if _, ok := tconcGet(h, tc.Get()); !ok {
		t.Fatal("first retrieval missing")
	}
	if _, ok := tconcGet(h, tc.Get()); !ok {
		t.Fatal("second retrieval missing (registered twice)")
	}
	if _, ok := tconcGet(h, tc.Get()); ok {
		t.Fatal("third retrieval should fail")
	}
}

func TestGuardianMultipleGuardians(t *testing.T) {
	h := heap.NewDefault()
	g1 := h.NewRoot(makeTconc(h))
	g2 := h.NewRoot(makeTconc(h))
	p := h.Cons(obj.FromFixnum(1), obj.Nil)
	h.InstallGuardian(p, g1.Get())
	h.InstallGuardian(p, g2.Get())
	h.Collect(0)
	a, ok1 := tconcGet(h, g1.Get())
	b, ok2 := tconcGet(h, g2.Get())
	if !ok1 || !ok2 {
		t.Fatal("object should be retrievable from both guardians")
	}
	if a != b {
		t.Fatal("both guardians must yield the identical object")
	}
}

func TestGuardianChain(t *testing.T) {
	// The paper's example: register guardian H with guardian G, then
	// drop H. G must yield H, and H must yield the object registered
	// with it — the iterated sweep in the guardian phase is what makes
	// H's registrations discoverable after H itself is salvaged.
	h := heap.NewDefault()
	g := h.NewRoot(makeTconc(h))
	hh := makeTconc(h)
	p := h.Cons(obj.FromFixnum(1), obj.FromFixnum(2))
	h.InstallGuardian(hh, g.Get()) // (G H)
	h.InstallGuardian(p, hh)       // (H x)
	h.Collect(0)
	got, ok := tconcGet(h, g.Get())
	if !ok {
		t.Fatal("G did not yield H")
	}
	inner, ok := tconcGet(h, got)
	if !ok {
		t.Fatal("H did not yield x")
	}
	if h.Car(inner).FixnumValue() != 1 || h.Cdr(inner).FixnumValue() != 2 {
		t.Fatal("x corrupted through the guardian chain")
	}
}

func TestGuardianSharedStructurePreservedWhole(t *testing.T) {
	// A shared structure of inaccessible objects is preserved in its
	// entirety; each registered piece is retrievable and their
	// interconnection intact (§3).
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	a := h.Cons(obj.FromFixnum(1), obj.Nil)
	b := h.Cons(obj.FromFixnum(2), a)
	h.SetCdr(a, b) // cycle
	h.InstallGuardian(a, tc.Get())
	h.InstallGuardian(b, tc.Get())
	h.Collect(0)
	x, ok1 := tconcGet(h, tc.Get())
	y, ok2 := tconcGet(h, tc.Get())
	if !ok1 || !ok2 {
		t.Fatal("both pieces should be retrievable")
	}
	if h.Cdr(x) != y || h.Cdr(y) != x {
		t.Fatal("shared cycle between salvaged pieces broken")
	}
}

func TestGuardianRepGeneralization(t *testing.T) {
	// §5: register with an agent; the agent, not the object, is
	// returned, and the object itself is reclaimed.
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	objv := h.Cons(obj.FromFixnum(1), obj.Nil)
	rep := h.Cons(obj.FromFixnum(99), obj.Nil)
	h.InstallGuardianRep(objv, rep, tc.Get())
	h.Collect(0)
	got, ok := tconcGet(h, tc.Get())
	if !ok {
		t.Fatal("agent not enqueued")
	}
	if h.Car(got).FixnumValue() != 99 {
		t.Fatal("wrong value enqueued; want the agent")
	}
}

func TestGuardianRepKeptAliveWhileHeld(t *testing.T) {
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	keep := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	rep := h.Cons(obj.FromFixnum(50), obj.Nil) // only ref is the entry
	h.InstallGuardianRep(keep.Get(), rep, tc.Get())
	h.Collect(0)
	h.Collect(0)
	keep.Release()
	h.Collect(1)
	got, ok := tconcGet(h, tc.Get())
	if !ok || h.Car(got).FixnumValue() != 50 {
		t.Fatal("agent must survive while its entry is held")
	}
}

func TestWeakPointerToSalvagedObjectSurvives(t *testing.T) {
	// §4: the weak-pair pass runs after guardian handling, so a weak
	// pointer to an object saved by a guardian is not broken.
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	p := h.Cons(obj.FromFixnum(123), obj.Nil)
	w := h.NewRoot(h.WeakCons(p, obj.Nil))
	h.InstallGuardian(p, tc.Get())
	h.Collect(0)
	got, ok := tconcGet(h, tc.Get())
	if !ok {
		t.Fatal("object not salvaged")
	}
	if h.Car(w.Get()) != got {
		t.Fatalf("weak pointer to salvaged object broken: %v", h.Car(w.Get()))
	}
}

func TestGuardianEntriesInOldGenerationsUntouched(t *testing.T) {
	// The generation-friendliness claim at the counter level: a
	// collection of generation 0 must not visit entries whose objects
	// live in older generations.
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	keeps := make([]*heap.Root, 100)
	for i := range keeps {
		keeps[i] = h.NewRoot(h.Cons(obj.FromFixnum(int64(i)), obj.Nil))
		h.InstallGuardian(keeps[i].Get(), tc.Get())
	}
	h.Collect(0)
	h.Collect(1) // entries now in generation 2's protected list
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.GuardianEntriesScanned != 0 {
		t.Fatalf("gen-0 collection scanned %d old guardian entries, want 0",
			h.Stats.GuardianEntriesScanned)
	}
}

func TestTenuredObjectSalvagedWhenItsGenerationCollected(t *testing.T) {
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	keep := h.NewRoot(h.Cons(obj.FromFixnum(7), obj.Nil))
	h.InstallGuardian(keep.Get(), tc.Get())
	for i := 0; i < 3; i++ {
		h.Collect(h.MaxGeneration()) // tenure all the way
	}
	if g := h.Generation(keep.Get()); g != h.MaxGeneration() {
		t.Fatalf("setup: generation %d", g)
	}
	keep.Release()
	h.Collect(0)
	if _, ok := tconcGet(h, tc.Get()); ok {
		t.Fatal("young collection must not salvage a tenured object")
	}
	h.Collect(h.MaxGeneration())
	got, ok := tconcGet(h, tc.Get())
	if !ok || h.Car(got).FixnumValue() != 7 {
		t.Fatal("tenured object not salvaged by full collection")
	}
}

func TestCollectAutoRadixPolicy(t *testing.T) {
	h := heap.MustNew(heap.Config{Generations: 3, Policy: heap.RadixPolicy{Trigger: 1 << 20, Radix: 2}, UseDirtySet: true})
	for i := 0; i < 8; i++ {
		h.CollectAuto()
	}
	// With radix 2: 8 requests = gens 0,1,0,2,0,1,0,2
	if h.Stats.CollectionsByGen[0] != 4 || h.Stats.CollectionsByGen[1] != 2 || h.Stats.CollectionsByGen[2] != 2 {
		t.Fatalf("radix policy wrong: %v", h.Stats.CollectionsByGen[:3])
	}
}

func TestCheckpointRunsHandler(t *testing.T) {
	h := heap.MustNew(heap.Config{Generations: 2, Policy: heap.RadixPolicy{Trigger: 64, Radix: 4}, UseDirtySet: true})
	called := 0
	h.SetCollectRequestHandler(func(hh *heap.Heap) {
		called++
		hh.Collect(0)
	})
	for i := 0; i < 100; i++ {
		h.Cons(obj.Nil, obj.Nil)
	}
	if !h.CollectPending() {
		t.Fatal("trigger did not fire")
	}
	h.Checkpoint()
	if called != 1 {
		t.Fatalf("handler called %d times, want 1", called)
	}
	if h.CollectPending() {
		t.Fatal("pending flag not cleared")
	}
}

func TestRootProviderVisited(t *testing.T) {
	h := heap.NewDefault()
	held := h.Cons(obj.FromFixnum(5), obj.Nil)
	h.AddRootProvider(heap.RootFunc(func(visit func(*obj.Value)) {
		visit(&held)
	}))
	h.Collect(0)
	if h.Car(held).FixnumValue() != 5 {
		t.Fatal("provider-held value lost")
	}
}

func TestLargeObjectSurvivesCollection(t *testing.T) {
	h := heap.NewDefault()
	const n = 3000
	v := h.MakeVector(n, obj.FromFixnum(0))
	for i := 0; i < n; i++ {
		h.VectorSet(v, i, obj.FromFixnum(int64(i*2)))
	}
	r := h.NewRoot(v)
	h.Collect(0)
	h.Collect(1)
	v = r.Get()
	for i := 0; i < n; i++ {
		if h.VectorRef(v, i).FixnumValue() != int64(i*2) {
			t.Fatalf("large vector element %d wrong after collection", i)
		}
	}
}

func TestDataSpaceNotSwept(t *testing.T) {
	h := heap.NewDefault()
	r := h.NewRoot(h.MakeString("some data that is copied but never swept"))
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.CellsSwept != 0 {
		t.Fatalf("data-only heap swept %d cells, want 0", h.Stats.CellsSwept)
	}
	if h.StringValue(r.Get()) == "" {
		t.Fatal("string lost")
	}
}

// buildRandomGraph constructs a pseudo-random object graph and returns
// the root value plus an independent Go-side mirror for verification.
type mirror struct {
	kind string // "fixnum", "pair", "vector", "string"
	fix  int64
	str  string
	kids []*mirror
}

func buildRandom(h *heap.Heap, rng *rand.Rand, depth int) (obj.Value, *mirror) {
	if depth <= 0 || rng.Intn(4) == 0 {
		n := rng.Int63n(1000)
		return obj.FromFixnum(n), &mirror{kind: "fixnum", fix: n}
	}
	switch rng.Intn(3) {
	case 0:
		a, ma := buildRandom(h, rng, depth-1)
		b, mb := buildRandom(h, rng, depth-1)
		return h.Cons(a, b), &mirror{kind: "pair", kids: []*mirror{ma, mb}}
	case 1:
		n := rng.Intn(5)
		m := &mirror{kind: "vector"}
		v := h.MakeVector(n, obj.Nil)
		for i := 0; i < n; i++ {
			c, mc := buildRandom(h, rng, depth-1)
			h.VectorSet(v, i, c)
			m.kids = append(m.kids, mc)
		}
		return v, m
	default:
		s := string(rune('a'+rng.Intn(26))) + "-str"
		return h.MakeString(s), &mirror{kind: "string", str: s}
	}
}

func checkMirror(t *testing.T, h *heap.Heap, v obj.Value, m *mirror) {
	t.Helper()
	switch m.kind {
	case "fixnum":
		if !v.IsFixnum() || v.FixnumValue() != m.fix {
			t.Fatalf("fixnum mismatch: got %v want %d", v, m.fix)
		}
	case "pair":
		if !v.IsPair() {
			t.Fatalf("expected pair, got %v", v)
		}
		checkMirror(t, h, h.Car(v), m.kids[0])
		checkMirror(t, h, h.Cdr(v), m.kids[1])
	case "vector":
		if h.VectorLength(v) != len(m.kids) {
			t.Fatalf("vector length mismatch")
		}
		for i, k := range m.kids {
			checkMirror(t, h, h.VectorRef(v, i), k)
		}
	case "string":
		if h.StringValue(v) != m.str {
			t.Fatalf("string mismatch: %q vs %q", h.StringValue(v), m.str)
		}
	}
}

func TestPropertyRandomGraphsSurviveCollections(t *testing.T) {
	cfgs := map[string]heap.Config{
		"dirty-set": heap.DefaultConfig(),
		"scan-all": {Generations: 4, Policy: heap.RadixPolicy{Trigger: 1 << 20, Radix: 4},
			UseDirtySet: false},
		"weak-scan-all": {Generations: 4, Policy: heap.RadixPolicy{Trigger: 1 << 20, Radix: 4},
			UseDirtySet: true, WeakScanAll: true},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				h := heap.MustNew(cfg)
				var roots []*heap.Root
				var mirrors []*mirror
				for i := 0; i < 10; i++ {
					v, m := buildRandom(h, rng, 6)
					roots = append(roots, h.NewRoot(v))
					mirrors = append(mirrors, m)
				}
				// Interleave garbage, mutation, and collections of
				// random generations.
				for step := 0; step < 20; step++ {
					for j := 0; j < 50; j++ {
						h.Cons(obj.FromFixnum(int64(j)), obj.Nil)
					}
					if step%3 == 0 {
						// Mutate one rooted structure root slot.
						i := rng.Intn(len(roots))
						v, m := buildRandom(h, rng, 4)
						roots[i].Set(v)
						mirrors[i] = m
					}
					h.Collect(rng.Intn(4))
				}
				for i, r := range roots {
					checkMirror(t, h, r.Get(), mirrors[i])
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestScanAllOracleMatchesDirtySet(t *testing.T) {
	// The same workload, run with the dirty-set barrier and with the
	// conservative scan-all collector, must preserve the same rooted
	// structure. (Scan-all may retain more garbage; reachable
	// structure must be identical.)
	run := func(cfg heap.Config) string {
		h := heap.MustNew(cfg)
		old := h.NewRoot(h.Cons(obj.False, obj.Nil))
		h.Collect(0)
		h.Collect(1)
		h.SetCar(old.Get(), h.List(obj.FromFixnum(1), obj.FromFixnum(2), obj.FromFixnum(3)))
		h.Collect(0)
		h.Collect(0)
		var out []byte
		v := h.Car(old.Get())
		for v.IsPair() {
			out = append(out, byte('0'+h.Car(v).FixnumValue()))
			v = h.Cdr(v)
		}
		return string(out)
	}
	withDirty := run(heap.DefaultConfig())
	noDirty := run(heap.Config{Generations: 4, Policy: heap.RadixPolicy{Trigger: 1 << 20, Radix: 4}, UseDirtySet: false})
	if withDirty != noDirty || withDirty != "123" {
		t.Fatalf("dirty=%q scanall=%q, want both \"123\"", withDirty, noDirty)
	}
}

func TestSegmentReuseAfterCollection(t *testing.T) {
	h := heap.NewDefault()
	for round := 0; round < 5; round++ {
		for i := 0; i < 20000; i++ {
			h.Cons(obj.Nil, obj.Nil)
		}
		h.Collect(0)
	}
	// Segment count should stay bounded: freed segments are reused.
	if n := h.SegmentsInUse(); n > 200 {
		t.Fatalf("segments leak: %d in use after churn", n)
	}
}

func TestCollectDuringCollectPanics(t *testing.T) {
	h := heap.NewDefault()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Collect did not panic")
		}
	}()
	h.AddRootProvider(heap.RootFunc(func(visit func(*obj.Value)) {
		h.Collect(0)
	}))
	h.Collect(0)
}

func TestGenerationBoundsClamped(t *testing.T) {
	h := heap.NewDefault()
	r := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	h.Collect(-5)  // clamps to 0
	h.Collect(999) // clamps to max generation
	if h.Car(r.Get()).FixnumValue() != 1 {
		t.Fatal("value lost")
	}
}

var _ = seg.Words // keep seg imported for documentation cross-reference
