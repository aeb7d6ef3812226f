package heap_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

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

// TestPromotionTargets: survivors of a collection of 0..g go to g+1, and
// the oldest dynamic generation collects into itself, as does an
// explicit collection of a static one — on every stock policy, under
// StaticTop, and on a StaticTop heap reloaded from an image.
func TestPromotionTargets(t *testing.T) {
	newHeap := func(gens int, p heap.Policy) *heap.Heap {
		cfg := heap.DefaultConfig()
		cfg.Generations, cfg.Policy = gens, p
		return heap.MustNew(cfg)
	}
	for _, c := range []struct {
		name    string
		h       *heap.Heap
		targets []int // by collected generation
	}{
		{"default", heap.NewDefault(), []int{1, 2, 3, 3}},
		{"adaptive", newHeap(4, &heap.AdaptivePolicy{}), []int{1, 2, 3, 3}},
		{"static-top", newHeap(4, heap.StaticTop(heap.RadixPolicy{})), []int{1, 2, 2, 3}},
		{"static-top one generation", newHeap(1, heap.StaticTop(heap.RadixPolicy{})), []int{0}},
		{"static-top reloaded", reload(t, newHeap(4, heap.StaticTop(heap.RadixPolicy{}))), []int{1, 2, 2, 3}},
	} {
		r := c.h.NewRoot(c.h.Cons(fx(1), obj.Nil))
		for g, want := range c.targets {
			if rep := c.h.Collect(g); rep.Target != want {
				t.Errorf("%s: Collect(%d) targeted generation %d, want %d", c.name, g, rep.Target, want)
			}
			if got := c.h.Generation(r.Get()); got != want {
				t.Errorf("%s: after Collect(%d) the survivor is in generation %d, want %d", c.name, g, got, want)
			}
		}
		c.h.MustVerify()
	}
}

// fixedGenPolicy is a misbehaving policy whose CollectGen always
// answers gen, in or out of the heap's range.
type fixedGenPolicy struct{ gen int }

func (p *fixedGenPolicy) Name() string                        { return "fixed" }
func (p *fixedGenPolicy) CollectGen(n uint64, maxGen int) int { return p.gen }
func (p *fixedGenPolicy) InitialTrigger() int                 { return heap.DefaultTriggerWords }
func (p *fixedGenPolicy) NextTrigger(*heap.CollectionReport, int) int {
	return heap.DefaultTriggerWords
}

// TestPolicyOutOfRangeClamped: a generation past either end of the heap,
// from a policy's CollectGen or passed to Collect, is clamped to
// [0, MaxGeneration] — the collection runs, reports the clamped
// generation and leaves a sound heap.
func TestPolicyOutOfRangeClamped(t *testing.T) {
	for _, c := range []struct {
		gen, wantGen, wantTarget int
	}{
		{99, 3, 3},
		{-7, 0, 1},
	} {
		p := &fixedGenPolicy{gen: c.gen}
		cfg := heap.DefaultConfig()
		cfg.Generations, cfg.Policy = 4, p
		h := heap.MustNew(cfg)
		r := h.NewRoot(h.Cons(fx(5), obj.Nil))
		if rep := h.CollectAuto(); rep.Gen != c.wantGen || rep.Target != c.wantTarget {
			t.Fatalf("CollectGen %d: collected %d into %d, want %d into %d",
				c.gen, rep.Gen, rep.Target, c.wantGen, c.wantTarget)
		}
		if got := h.Generation(r.Get()); got != c.wantTarget {
			t.Fatalf("CollectGen %d: survivor in generation %d, want %d", c.gen, got, c.wantTarget)
		}
		if rep := h.Collect(c.gen); rep.Gen != c.wantGen || rep.Target != c.wantTarget {
			t.Fatalf("Collect(%d): collected %d into %d, want %d into %d",
				c.gen, rep.Gen, rep.Target, c.wantGen, c.wantTarget)
		}
		if h.Car(r.Get()).FixnumValue() != 5 {
			t.Fatalf("CollectGen %d: value lost", c.gen)
		}
		h.MustVerify()
	}
}

// TestPolicyDemotionClampedToG: no collection moves a survivor to a
// generation younger than the one it lived in. A collection of 0..g
// targets g+1, or g itself at the oldest dynamic generation and above;
// a generation below zero — from a policy or from Collect — is clamped
// to 0 and leaves older objects where they are.
func TestPolicyDemotionClampedToG(t *testing.T) {
	for _, c := range []struct {
		name string
		p    heap.Policy
		top  int // the generation repeated collections of MaxGeneration keep it in
	}{
		{"radix", heap.RadixPolicy{}, 3},
		{"static-top", heap.StaticTop(heap.RadixPolicy{}), 3},
	} {
		cfg := heap.DefaultConfig()
		cfg.Generations, cfg.Policy = 4, c.p
		h := heap.MustNew(cfg)
		r := h.NewRoot(h.Cons(fx(7), h.MakeString("kept")))
		prev := 0
		for g := 0; g <= h.MaxGeneration(); g++ {
			h.Collect(g)
			got := h.Generation(r.Get())
			if got < prev {
				t.Fatalf("%s: Collect(%d) demoted the survivor from generation %d to %d", c.name, g, prev, got)
			}
			prev = got
		}
		if prev != c.top {
			t.Fatalf("%s: survivor in generation %d, want %d", c.name, prev, c.top)
		}
		for i := 0; i < 3; i++ {
			if rep := h.Collect(h.MaxGeneration()); rep.Target != c.top {
				t.Fatalf("%s: Collect(%d) targeted generation %d, want %d", c.name, h.MaxGeneration(), rep.Target, c.top)
			}
			h.Collect(-7)
			if got := h.Generation(r.Get()); got != c.top {
				t.Fatalf("%s: generation drifted to %d under repeated collections", c.name, got)
			}
			h.MustVerify()
		}
		if h.Car(r.Get()).FixnumValue() != 7 || h.StringValue(h.Cdr(r.Get())) != "kept" {
			t.Fatalf("%s: value lost", c.name)
		}
	}
}
