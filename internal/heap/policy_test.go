package heap_test

import (
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
