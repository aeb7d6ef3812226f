package heap_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/seg"
)

// Boundary and corner-case tests for the allocator and collector.

func TestAllocationAcrossSegmentBoundary(t *testing.T) {
	h := heap.NewDefault()
	// Fill a pair segment exactly (256 pairs of 2 words), then one more.
	var last obj.Value
	roots := make([]*heap.Root, 0, seg.Words/2+1)
	for i := 0; i <= seg.Words/2; i++ {
		last = h.Cons(obj.FromFixnum(int64(i)), obj.Nil)
		roots = append(roots, h.NewRoot(last))
	}
	h.Collect(0)
	for i, r := range roots {
		if h.Car(r.Get()).FixnumValue() != int64(i) {
			t.Fatalf("pair %d corrupted across segment boundary", i)
		}
	}
	h.MustVerify()
}

func TestVectorSizesAroundSegmentBoundary(t *testing.T) {
	h := heap.NewDefault()
	// Payload+header around the 512-word segment size.
	for _, n := range []int{509, 510, 511, 512, 513, 1023, 1024, 1025} {
		v := h.MakeVector(n, obj.FromFixnum(7))
		r := h.NewRoot(v)
		h.VectorSet(v, 0, obj.FromFixnum(int64(n)))
		h.VectorSet(v, n-1, obj.FromFixnum(int64(-n)))
		h.Collect(0)
		v = r.Get()
		if h.VectorLength(v) != n {
			t.Fatalf("vector %d: length lost", n)
		}
		if h.VectorRef(v, 0).FixnumValue() != int64(n) ||
			h.VectorRef(v, n-1).FixnumValue() != int64(-n) {
			t.Fatalf("vector %d: contents lost after collection", n)
		}
		r.Release()
	}
	h.Collect(h.MaxGeneration())
	h.MustVerify()
}

func TestStringSizesAroundWordBoundary(t *testing.T) {
	h := heap.NewDefault()
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 4095, 4096, 4097} {
		s := strings.Repeat("x", n)
		v := h.NewRoot(h.MakeString(s))
		h.Collect(0)
		if got := h.StringValue(v.Get()); got != s {
			t.Fatalf("string of %d bytes corrupted: %d bytes back", n, len(got))
		}
		v.Release()
	}
	h.MustVerify()
}

func TestSelfReferentialWeakPair(t *testing.T) {
	// A weak pair whose car points at itself: pair? and weakness both
	// apply to the same object.
	h := heap.NewDefault()
	w := h.NewRoot(h.WeakCons(obj.False, obj.Nil))
	h.SetCar(w.Get(), w.Get())
	h.Collect(0)
	// The pair is alive (rooted), so its self-weak-car must follow it.
	if h.Car(w.Get()) != w.Get() {
		t.Fatal("self-referential weak car broken or stale")
	}
	h.MustVerify()
}

func TestWeakPairChainOfWeakPairs(t *testing.T) {
	// Weak pair whose car is another weak pair that dies.
	h := heap.NewDefault()
	inner := h.WeakCons(obj.FromFixnum(1), obj.Nil)
	outer := h.NewRoot(h.WeakCons(inner, obj.Nil))
	h.Collect(0)
	if h.Car(outer.Get()) != obj.False {
		t.Fatal("dead inner weak pair should break the outer weak car")
	}
	h.MustVerify()
}

func TestGuardianRegisteredWithOwnTconc(t *testing.T) {
	// Registering a guardian's tconc with itself: the entry holds the
	// tconc both as object and guardian. While the tconc is rooted the
	// entry is held; after release, the entry is dropped (tconc dead)
	// rather than salvaged into itself.
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	h.InstallGuardian(tc.Get(), tc.Get())
	h.Collect(0)
	if h.ProtectedCount() != 1 {
		t.Fatal("self-registered entry should be held while rooted")
	}
	tc.Release()
	h.Collect(1)
	if h.ProtectedCount() != 0 {
		t.Fatal("self-registered entry should drop with its guardian")
	}
	if h.Stats.GuardianEntriesDropped == 0 {
		t.Fatal("expected a dropped-dead-tconc entry")
	}
	h.MustVerify()
}

func TestGuardianCycleBetweenTwoGuardians(t *testing.T) {
	// G1's tconc registered with G2 and vice versa; both otherwise
	// dead. Neither guardian is accessible, so both entries (and the
	// tconcs) must be reclaimed — the paper's pend-final loop must
	// terminate without salvaging either.
	h := heap.NewDefault()
	t1 := makeTconc(h)
	t2 := makeTconc(h)
	h.InstallGuardian(t1, t2)
	h.InstallGuardian(t2, t1)
	h.Collect(0)
	if h.ProtectedCount() != 0 {
		t.Fatal("mutually-registered dead guardians must both drop")
	}
	if h.Stats.GuardianEntriesSalvaged != 0 {
		t.Fatal("nothing should be salvaged for dead guardians")
	}
	h.MustVerify()
}

func TestGuardianCycleOneRooted(t *testing.T) {
	// Same cycle, but G1 is rooted: G1 is accessible, so t2 (registered
	// with G1) is salvageable when dropped, and t2's own entry for t1
	// is then held because t1 is reachable... through the entry chain.
	h := heap.NewDefault()
	t1 := h.NewRoot(makeTconc(h))
	t2 := makeTconc(h)
	h.InstallGuardian(t2, t1.Get()) // G1 guards t2
	h.InstallGuardian(t1.Get(), t2) // G2 (dead) guards t1
	h.Collect(0)
	// t2 was inaccessible, G1 accessible: t2 salvaged onto G1.
	got, ok := tconcGet(h, t1.Get())
	if !ok || got == obj.False {
		t.Fatal("t2 not salvaged onto rooted G1")
	}
	h.MustVerify()
}

func TestRegistrationDuringDrainInterleaving(t *testing.T) {
	// Register, collect, retrieve, re-register the same object, and
	// repeat — entries must never duplicate or leak.
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	obj1 := h.NewRoot(h.Cons(obj.FromFixnum(42), obj.Nil))
	for round := 0; round < 5; round++ {
		h.InstallGuardian(obj1.Get(), tc.Get())
		saved := obj1.Get()
		obj1.Release()
		h.Collect(h.MaxGeneration())
		got, ok := tconcGet(h, tc.Get())
		if !ok {
			t.Fatalf("round %d: object not salvaged", round)
		}
		_ = saved
		if h.Car(got).FixnumValue() != 42 {
			t.Fatalf("round %d: object corrupted", round)
		}
		obj1 = h.NewRoot(got)
	}
	if h.ProtectedCount() != 0 {
		t.Fatalf("leaked %d protected entries", h.ProtectedCount())
	}
	h.MustVerify()
}

func TestOneGenerationHeapGuardians(t *testing.T) {
	// Degenerate configuration: a single generation (every collection
	// is a full collection into itself).
	h := heap.MustNew(heap.Config{Generations: 1, Policy: heap.RadixPolicy{Trigger: 1 << 20, Radix: 4}, UseDirtySet: true})
	tc := h.NewRoot(makeTconc(h))
	p := h.Cons(obj.FromFixnum(9), obj.Nil)
	h.InstallGuardian(p, tc.Get())
	w := h.NewRoot(h.WeakCons(p, obj.Nil))
	h.Collect(0)
	got, ok := tconcGet(h, tc.Get())
	if !ok || h.Car(got).FixnumValue() != 9 {
		t.Fatal("guardian failed in single-generation heap")
	}
	if h.Car(w.Get()) != got {
		t.Fatal("weak pointer to salvaged object broken in single-generation heap")
	}
	h.Collect(0)
	h.MustVerify()
}

func TestManyGenerationsPromotionLadder(t *testing.T) {
	const gens = 8
	h := heap.MustNew(heap.Config{Generations: gens, Policy: heap.RadixPolicy{Trigger: 1 << 20, Radix: 2}, UseDirtySet: true})
	r := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	for g := 0; g < gens; g++ {
		if got := h.Generation(r.Get()); got != g {
			t.Fatalf("expected generation %d, got %d", g, got)
		}
		h.Collect(g)
	}
	if got := h.Generation(r.Get()); got != gens-1 {
		t.Fatalf("object should cap at generation %d, got %d", gens-1, got)
	}
	h.MustVerify()
}

func TestMutationOfVacatedTconcCellsIsHarmless(t *testing.T) {
	// Figure 4's cleanup stores #f into vacated cells; make sure a
	// full collection right after sees a consistent queue.
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	for i := 0; i < 10; i++ {
		p := h.Cons(obj.FromFixnum(int64(i)), obj.Nil)
		h.InstallGuardian(p, tc.Get())
	}
	h.Collect(0)
	// Drain half, collect, drain the rest.
	for i := 0; i < 5; i++ {
		if _, ok := tconcGet(h, tc.Get()); !ok {
			t.Fatal("underflow")
		}
	}
	h.Collect(h.MaxGeneration())
	count := 0
	for {
		if _, ok := tconcGet(h, tc.Get()); !ok {
			break
		}
		count++
	}
	if count != 5 {
		t.Fatalf("drained %d after collection, want 5", count)
	}
	h.MustVerify()
}

func TestHugeObjectRejected(t *testing.T) {
	h := heap.NewDefault()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized allocation did not panic")
		}
	}()
	h.MakeVector(1<<21, obj.Nil)
}

func TestDirtySetSurvivesManyGenerationsChain(t *testing.T) {
	// gen3 -> gen2 -> gen1 -> gen0 chain built through mutation; a
	// young collection must trace through the dirty entries.
	h := heap.NewDefault()
	a := h.NewRoot(h.Cons(obj.False, obj.Nil))
	h.Collect(0)
	h.Collect(1)
	h.Collect(2) // a in gen 3
	b := h.Cons(obj.False, obj.Nil)
	h.SetCar(a.Get(), b) // gen3 -> gen0
	h.Collect(0)         // b -> gen1
	c := h.Cons(obj.False, obj.Nil)
	h.SetCar(h.Car(a.Get()), c) // gen1 -> gen0
	h.Collect(0)                // c -> gen1
	d := h.Cons(obj.FromFixnum(77), obj.Nil)
	h.SetCar(h.Car(h.Car(a.Get())), d) // gen1 -> gen0
	h.Collect(0)
	got := h.Car(h.Car(h.Car(a.Get())))
	if !got.IsPair() || h.Car(got).FixnumValue() != 77 {
		t.Fatal("chain through dirty sets broken")
	}
	h.MustVerify()
}

func TestStatsStringMentionsEverySection(t *testing.T) {
	h := heap.NewDefault()
	h.Cons(obj.Nil, obj.Nil)
	h.Collect(0)
	out := h.Stats.String()
	for _, want := range []string{"alloc:", "gc:", "barrier:", "guardians:", "weak:", "pause:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats missing section %q in %q", want, out)
		}
	}
}

func TestLiveWordsAndSegmentsTrackUsage(t *testing.T) {
	h := heap.NewDefault()
	before := h.LiveWords()
	r := h.NewRoot(h.MakeVector(100, obj.Nil))
	if h.LiveWords() < before+101 {
		t.Fatal("LiveWords did not grow with allocation")
	}
	r.Release()
	h.Collect(h.MaxGeneration())
	if h.LiveWords() > before+101 {
		t.Fatalf("LiveWords did not shrink after collection: %d", h.LiveWords())
	}
	_ = fmt.Sprint(h.SegmentsInUse())
}

// TestCollectPanicReleasesHandshake: a panic unwinding out of a
// collection (here: out of memory on a bounded heap, mid-copy) leaves
// from-space half-copied, and a caller that recovered —
// scheme.EvalString recovers every panic — must not run on it: the heap
// is marked failed, and every later collection and allocation refuses
// instead of hanging or running on corrupt state. Through a Mutator
// the failed heap can still be handed on: Unregister gives it up and
// the next registration gets it.
func TestCollectPanicReleasesHandshake(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutator bool
		large   bool
	}{
		{"pairs/legacy", false, false},
		{"pairs/mutator", true, false},
		{"large/legacy", false, true},
		{"large/mutator", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := heap.DefaultConfig()
			cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
			cfg.MaxSegments = 40
			h := heap.MustNew(cfg)
			cons, vector, collect := h.Cons, h.MakeVector, h.Collect
			var m *heap.Mutator
			if tc.mutator {
				m = h.RegisterMutator()
				cons, vector, collect = m.Cons, m.MakeVector, m.Collect
			}
			lst := h.NewRoot(obj.Nil)
			if tc.large {
				// Nine rooted 4-segment vectors fill 36 segments: the
				// copy of the first fits, the second's run does not.
				for i := 0; i < 9; i++ {
					lst.Set(cons(vector(4*seg.Words-1, obj.Nil), lst.Get()))
				}
			} else {
				// 30 segments of rooted pairs: copying them needs 30
				// more, and the heap stops at 40.
				for i := 0; i < 30*seg.Words/2; i++ {
					lst.Set(cons(obj.FromFixnum(int64(i)), lst.Get()))
				}
			}
			collectPanic := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				collect(0)
				return
			}
			watchdog := func(what string, f func() string) string {
				done := make(chan string, 1)
				go func() { done <- f() }()
				select {
				case msg := <-done:
					return msg
				case <-time.After(3 * time.Second):
					t.Fatalf("%s hung: the failed collection left a lock held", what)
					return ""
				}
			}
			if msg := watchdog("Collect(0) on the full heap", collectPanic); !strings.Contains(msg, "out of memory") {
				t.Fatalf("Collect(0) on the full heap: %q, want an out-of-memory panic", msg)
			}
			if msg := watchdog("second Collect(0)", collectPanic); !strings.Contains(msg, "heap unusable after failed collection") {
				t.Fatalf("second Collect(0): %q, want the failed-heap panic", msg)
			}
			allocPanic := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				for i := 0; i <= seg.Words/2; i++ { // past the open segment, into the slow path
					cons(obj.Nil, obj.Nil)
				}
				return
			}
			if msg := watchdog("allocation after the failed collection", allocPanic); !strings.Contains(msg, "heap unusable after failed collection") {
				t.Fatalf("allocation after the failed collection: %q, want the failed-heap panic", msg)
			}
			if m != nil {
				m.Unregister()
				watchdog("RegisterMutator after the failed collection", func() string {
					h.RegisterMutator().Unregister()
					return ""
				})
			}
		})
	}
}
