package heap_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// §4: "the number of generations and the promotion and tenure
// strategies supported by the collector are under programmer control."
// These tests exercise non-default promotion policies through the
// Config.Policy seam.

func withPolicy(fn func(g, maxGen int) int) heap.Config {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 20, Target: fn}
	return cfg
}

func TestPolicySkipGeneration(t *testing.T) {
	// Nursery survivors tenure straight to the oldest generation.
	h := heap.MustNew(withPolicy(func(g, maxGen int) int { return maxGen }))
	r := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	h.Collect(0)
	if got := h.Generation(r.Get()); got != h.MaxGeneration() {
		t.Fatalf("skip policy: generation %d, want %d", got, h.MaxGeneration())
	}
	if h.Car(r.Get()).FixnumValue() != 1 {
		t.Fatal("value lost")
	}
	h.MustVerify()
}

func TestPolicyNeverPromote(t *testing.T) {
	// Survivors stay in generation 0 (a two-space copying collector).
	h := heap.MustNew(withPolicy(func(g, maxGen int) int { return 0 }))
	r := h.NewRoot(h.Cons(obj.FromFixnum(2), obj.Nil))
	for i := 0; i < 5; i++ {
		h.Collect(0)
		if got := h.Generation(r.Get()); got != 0 {
			t.Fatalf("never-promote policy: generation %d", got)
		}
		h.MustVerify()
	}
	if h.Car(r.Get()).FixnumValue() != 2 {
		t.Fatal("value lost under never-promote policy")
	}
}

func TestPolicyGuardiansStillWork(t *testing.T) {
	// Guardians under an eager-tenure policy: entries migrate to the
	// policy's target lists and salvage still fires when the object's
	// generation is collected.
	h := heap.MustNew(withPolicy(func(g, maxGen int) int { return maxGen }))
	tc := h.NewRoot(makeTconc(h))
	keep := h.NewRoot(h.Cons(obj.FromFixnum(3), obj.Nil))
	h.InstallGuardian(keep.Get(), tc.Get())
	byGen := h.Collect(0).ProtectedByGen // everything tenures to the oldest generation
	if byGen[h.MaxGeneration()] != 1 {
		t.Fatalf("entry should follow the policy's target: %v", byGen)
	}
	keep.Release()
	h.Collect(0)
	if _, ok := tconcGet(h, tc.Get()); ok {
		t.Fatal("young collection must not salvage the tenured object")
	}
	h.Collect(h.MaxGeneration())
	got, ok := tconcGet(h, tc.Get())
	if !ok || h.Car(got).FixnumValue() != 3 {
		t.Fatal("object not salvaged under custom policy")
	}
	h.MustVerify()
}

func TestPolicyWeakPairsStillSound(t *testing.T) {
	h := heap.MustNew(withPolicy(func(g, maxGen int) int { return maxGen }))
	target := h.NewRoot(h.Cons(obj.FromFixnum(4), obj.Nil))
	w := h.NewRoot(h.WeakCons(target.Get(), obj.Nil))
	h.Collect(0)
	if h.Car(w.Get()) != target.Get() {
		t.Fatal("weak car lost under policy")
	}
	target.Release()
	h.Collect(h.MaxGeneration())
	if h.Car(w.Get()) != obj.False {
		t.Fatal("weak car not broken under policy")
	}
	h.MustVerify()
}

func TestPolicyDemotionClampedToG(t *testing.T) {
	// A misbehaving policy that demotes (target < g) is clamped to g:
	// from-space is exactly generations 0..g, so a younger target would
	// land survivors straight back in from-space and the cursor-reset
	// logic would free their segments. The clamp (documented on
	// Policy.TargetGen) makes such a policy behave exactly like the
	// in-place policy target == g.
	target := 2
	h := heap.MustNew(withPolicy(func(g, maxGen int) int { return target }))
	r := h.NewRoot(h.Cons(obj.FromFixnum(7), h.MakeString("kept")))
	h.Collect(0) // legitimate promotion straight to generation 2
	if got := h.Generation(r.Get()); got != 2 {
		t.Fatalf("setup: generation %d, want 2", got)
	}
	target = 0 // now demand demotion during a collection of 0..2
	h.Collect(2)
	if got := h.Generation(r.Get()); got != 2 {
		t.Fatalf("demoting policy not clamped to g: generation %d, want 2", got)
	}
	if h.Car(r.Get()).FixnumValue() != 7 || h.StringValue(h.Cdr(r.Get())) != "kept" {
		t.Fatal("value lost under demoting policy")
	}
	h.MustVerify()
	// Repeated demotion requests keep colliding with the clamp without
	// corrupting the heap.
	for i := 0; i < 3; i++ {
		h.Collect(2)
		h.MustVerify()
	}
	if got := h.Generation(r.Get()); got != 2 {
		t.Fatalf("generation drifted to %d under repeated demotion", got)
	}
}

// TestPolicySkipPromotionGuardianEntryRescan is the regression test
// for a stale-pointer bug the shim-equivalence suite exposed: a
// skip-promotion policy (target g+2) migrated held guardian entries to
// protected[target] even when the entry's tconc still lived in an
// intermediate, uncollected generation. The next collection of that
// intermediate generation then moved the tconc without rescanning the
// entry, and the stale pointer later corrupted the salvage path
// ("tconc: malformed header"). Held entries must stay on a list no
// older than anything they reference.
func TestPolicySkipPromotionGuardianEntryRescan(t *testing.T) {
	h := heap.MustNew(withPolicy(func(g, maxGen int) int { return g + 2 }))
	tc := h.NewRoot(makeTconc(h))
	h.Collect(0) // tconc promotes 0 -> 2
	if got := h.Generation(tc.Get()); got != 2 {
		t.Fatalf("setup: tconc generation %d, want 2", got)
	}
	// Guard a fresh generation-0 pair that stays live across the next
	// collection.
	keep := h.NewRoot(h.Cons(obj.FromFixnum(11), obj.Nil))
	h.InstallGuardian(keep.Get(), tc.Get())
	h.Collect(1) // gens 0..1 -> 3: the held entry outruns its gen-2 tconc
	h.MustVerify()
	h.Collect(2) // moves the tconc; the entry must be rescanned with it
	h.MustVerify()
	keep.Release()
	h.Collect(h.MaxGeneration())
	got, ok := tconcGet(h, tc.Get())
	if !ok || h.Car(got).FixnumValue() != 11 {
		t.Fatal("guarded object not salvaged after skip promotion")
	}
	h.MustVerify()
}

func TestPolicyOutOfRangeClamped(t *testing.T) {
	h := heap.MustNew(withPolicy(func(g, maxGen int) int { return 99 }))
	r := h.NewRoot(h.Cons(obj.FromFixnum(5), obj.Nil))
	h.Collect(0)
	if got := h.Generation(r.Get()); got != h.MaxGeneration() {
		t.Fatalf("overshooting policy not clamped: %d", got)
	}
	h2 := heap.MustNew(withPolicy(func(g, maxGen int) int { return -7 }))
	r2 := h2.NewRoot(h2.Cons(obj.FromFixnum(6), obj.Nil))
	h2.Collect(0)
	if got := h2.Generation(r2.Get()); got != 0 {
		t.Fatalf("undershooting policy not clamped: %d", got)
	}
	h.MustVerify()
	h2.MustVerify()
}

// staticTopPair builds the two heaps StaticTop promises behave alike:
// three generations under the radix policy, and four generations under
// StaticTop of the same policy. The workload's collection op is an
// automatic collection or an explicit one of a dynamic generation, the
// same on both.
func staticTopPair() (plain, static *oracleHeap) {
	collect := func(h *heap.Heap, rng *rand.Rand) {
		if g := rng.Intn(4); g < 3 {
			h.Collect(g)
		} else {
			h.CollectAuto()
		}
	}
	plain = newOracleHeap(func(cfg *heap.Config) { cfg.Generations = 3 })
	static = newOracleHeap(func(cfg *heap.Config) {
		cfg.Generations = 4
		cfg.Policy = heap.StaticTop(cfg.Policy)
	})
	plain.collect, static.collect = collect, collect
	return plain, static
}

// TestStaticTopMatchesOneGenerationFewer: on the same op trace the
// dynamic generations of a StaticTop heap are the heap with one
// generation fewer — same reachable structure, same tconc contents and
// order, same weak-pair states, same words copied and guardian entries
// scanned after every collection (oracleHeap.compare), every object in
// the same generation, and nothing in the static one. An explicit
// Collect(MaxGeneration()) then tenures every survivor into the static
// generation and salvages exactly what the plain heap's full
// collection does.
func TestStaticTopMatchesOneGenerationFewer(t *testing.T) {
	for _, seed := range []int64{1, 7, 20261005} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, b := staticTopPair()
			top := b.h.MaxGeneration()
			oracleLockstep(t, seed, 3000, a, b, "three-generation", "static-top", func() {
				for i := range a.roots {
					ga, gb := a.h.Generation(a.roots[i].Get()), b.h.Generation(b.roots[i].Get())
					if ga != gb {
						t.Fatalf("root %d: generation %d on the plain heap, %d under StaticTop", i, ga, gb)
					}
				}
				c := b.h.Census()
				if n := c.Gen(top).Segments; n != 0 {
					t.Fatalf("%d segments reached the static generation", n)
				}
			})
			// Leave a registration only the full collection can salvage:
			// dropped once it sits in generation 2.
			for _, o := range []*oracleHeap{a, b} {
				r := o.h.NewRoot(o.h.Cons(obj.FromFixnum(4242), obj.Nil))
				o.h.InstallGuardian(r.Get(), o.tconc.Get())
				o.h.Collect(1)
				r.Release()
			}
			salvaged := b.h.Stats.GuardianEntriesSalvaged
			a.h.Collect(a.h.MaxGeneration())
			if rep := b.h.Collect(top); rep.Gen != top || rep.Target != top {
				t.Fatalf("explicit full collection ran %d -> %d, want %d -> %d", rep.Gen, rep.Target, top, top)
			}
			if err := a.compare(b); err != nil {
				t.Fatalf("after the full collection: %v", err)
			}
			if b.h.Stats.GuardianEntriesSalvaged == salvaged {
				t.Fatal("the full collection salvaged nothing")
			}
			for i, r := range b.roots {
				if v := r.Get(); v.IsPointer() && b.h.Generation(v) != top {
					t.Fatalf("root %d: generation %d after the full collection, want %d", i, b.h.Generation(v), top)
				}
			}
			b.h.MustVerify()
			// And the static generation stays put from then on.
			copied := b.h.Stats.WordsCopied
			for i := 0; i < 40; i++ {
				b.h.CollectAuto()
			}
			if b.h.Stats.WordsCopied != copied {
				t.Fatalf("automatic collections copied %d words out of a heap tenured into the static generation",
					b.h.Stats.WordsCopied-copied)
			}
		})
	}
}

// TestStaticTopEdges: a one-generation heap has no generation to hold
// static, a stateful inner policy is cloned per heap, and the wrapper's
// inner RadixPolicy is validated like a bare one.
func TestStaticTopEdges(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Generations = 1
	cfg.Policy = heap.StaticTop(heap.RadixPolicy{Trigger: 1 << 20})
	h := heap.MustNew(cfg)
	r := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	h.CollectAuto()
	if h.OldestDynamic() != 0 || h.Car(r.Get()).FixnumValue() != 1 {
		t.Fatal("one-generation heap under StaticTop lost its object")
	}
	h.MustVerify()

	cfg = heap.DefaultConfig()
	cfg.Policy = heap.StaticTop(heap.NewAdaptivePolicy())
	h1, h2 := heap.MustNew(cfg), heap.MustNew(cfg)
	if h1.Policy() == h2.Policy() {
		t.Fatal("two heaps share one adaptive policy under StaticTop")
	}
	if h1.OldestDynamic() != h1.MaxGeneration()-1 || heap.NewDefault().OldestDynamic() != 3 {
		t.Fatal("OldestDynamic does not follow the policy")
	}

	cfg.Policy = heap.StaticTop(heap.RadixPolicy{Radix: 1})
	if _, err := heap.New(cfg); err == nil {
		t.Fatal("StaticTop hid an invalid RadixPolicy from Validate")
	}
}
