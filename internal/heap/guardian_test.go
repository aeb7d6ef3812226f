package heap_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// This file pins the guardian salvage fixpoint of §4: the salvage
// order observable through a guardian's tconc, which the paper's
// Figure 4 mutator protocol reads positionally — programs may rely on
// retrieval order matching registration order.

// tconcIDs walks a tconc read-only (without performing the mutator's
// destructive Figure 4 reads) and returns the car fixnum of each
// queued pair, head to tail. The workloads below register only pairs
// whose car is a unique fixnum ID, so this sequence identifies both
// the set of salvaged objects and their exact append order.
func tconcIDs(h *heap.Heap, tc obj.Value) []int64 {
	var ids []int64
	for x := h.Car(tc); x != h.Cdr(tc); x = h.Cdr(x) {
		item := h.Car(x)
		ids = append(ids, h.Car(item).FixnumValue())
	}
	return ids
}

// guardianWorkload drives one heap through a seeded random mix of
// guardian registrations (dropped, held, rep-carrying, and
// guardian-registered-with-guardian), weak pairs, mutations, root
// drops, and collections, recording the guardian tconc's ID sequence
// after every collection. Two heaps run with the same seed consume
// identical random streams, so any divergence in the returned
// history is the collector's doing.
func guardianWorkload(t *testing.T, seed int64, steps int) (history [][]int64, salvaged, held uint64) {
	t.Helper()
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30} // collections are explicit ops only
	h := heap.MustNew(cfg)
	tc := h.NewRoot(makeTconc(h))
	var roots []*heap.Root
	nextID := int64(0)
	newGuarded := func() obj.Value {
		nextID++
		return h.Cons(obj.FromFixnum(nextID), obj.Nil)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(100); {
		case op < 20: // rooted cons (some also registered: held entries)
			r := h.NewRoot(newGuarded())
			roots = append(roots, r)
			if rng.Intn(2) == 0 {
				h.InstallGuardian(r.Get(), tc.Get())
			}
		case op < 30: // dropped cons registered for salvage
			h.InstallGuardian(newGuarded(), tc.Get())
		case op < 38: // dropped cons with a distinct representative (§5)
			h.InstallGuardianRep(newGuarded(), newGuarded(), tc.Get())
		case op < 46: // chain: a dropped pair that itself references a guarded pair
			inner := newGuarded()
			h.InstallGuardian(inner, tc.Get())
			h.InstallGuardian(h.Cons(obj.FromFixnum(func() int64 { nextID++; return nextID }()), inner), tc.Get())
		case op < 54: // weak pair over a guarded value
			v := newGuarded()
			h.InstallGuardian(v, tc.Get())
			roots = append(roots, h.NewRoot(h.WeakCons(v, obj.Nil)))
		case op < 64: // mutate a rooted pair
			if len(roots) > 0 {
				v := roots[rng.Intn(len(roots))].Get()
				if v.IsPair() && !h.IsWeakPair(v) {
					h.SetCdr(v, obj.FromFixnum(int64(rng.Intn(100))))
				}
			}
		case op < 76: // drop a root: held registrations become salvage fodder
			if len(roots) > 2 {
				j := rng.Intn(len(roots))
				roots[j].Release()
				roots[j] = roots[len(roots)-1]
				roots = roots[:len(roots)-1]
			}
		default: // collect a random generation range and snapshot the tconc
			h.Collect(rng.Intn(h.MaxGeneration() + 1))
			if errs := h.Verify(); len(errs) > 0 {
				t.Fatalf("seed %d step %d: heap unsound: %v", seed, i, errs[0])
			}
			history = append(history, tconcIDs(h, tc.Get()))
		}
	}
	h.Collect(h.MaxGeneration())
	history = append(history, tconcIDs(h, tc.Get()))
	return history, h.Stats.GuardianEntriesSalvaged, h.Stats.GuardianEntriesHeld
}

// TestGuardianWorkloadSalvagesOnce runs the randomized guardian
// workload twice with one seed. The two tconc histories must be
// identical: the collector is deterministic. Nothing reads the tconc,
// so each snapshot must extend the one before it, and no ID may be
// salvaged twice, since every object is registered once.
func TestGuardianWorkloadSalvagesOnce(t *testing.T) {
	const steps = 1200
	const seed = 20260808
	ref, refSalvaged, refHeld := guardianWorkload(t, seed, steps)
	if refSalvaged == 0 || refHeld == 0 {
		t.Fatalf("weak workload: salvaged=%d held=%d", refSalvaged, refHeld)
	}
	got, salvaged, held := guardianWorkload(t, seed, steps)
	if salvaged != refSalvaged || held != refHeld || !reflect.DeepEqual(got, ref) {
		t.Fatalf("second run diverges: salvaged/held %d/%d vs %d/%d, %d vs %d collections",
			salvaged, held, refSalvaged, refHeld, len(got), len(ref))
	}
	for c := 1; c < len(ref); c++ {
		if prev := ref[c-1]; len(ref[c]) < len(prev) || !slices.Equal(ref[c][:len(prev)], prev) {
			t.Fatalf("tconc after collection %d does not extend the one before:\nbefore: %v\nafter:  %v", c, prev, ref[c])
		}
	}
	final := ref[len(ref)-1]
	if uint64(len(final)) != refSalvaged {
		t.Fatalf("tconc holds %d items, %d salvaged", len(final), refSalvaged)
	}
	seen := map[int64]bool{}
	for _, id := range final {
		if seen[id] {
			t.Fatalf("ID %d salvaged twice: %v", id, final)
		}
		seen[id] = true
	}
}

// TestGuardianChainSalvageOrder pins the §4 fixpoint semantics in
// three scenarios:
//
//  1. A dropped reference chain a→b→c registered c,b,a with a live
//     guardian salvages entirely in round 1, in registration order
//     [3 2 1]: object accessibility is judged once at the initial
//     partition, and the fixpoint iterates on tconc accessibility
//     only — salvaging c does not re-shield b or a.
//  2. §3's guardian-registered-with-guardian: entries registered with
//     a dropped guardian B, whose tconc is itself registered with a
//     live guardian A, salvage only after B's tconc is salvaged into
//     A — a genuinely multi-round fixpoint (rounds = 3).
//  3. The mid-round monotonicity case: with B's tconc entry
//     registered *before* the entry that needs it, the algorithm
//     observes B's salvage mid-round and finishes in one salvage
//     round (rounds = 2): each entry's tconc is checked when the round
//     reaches it, not in a snapshot taken at the round's start.
func TestGuardianChainSalvageOrder(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		cfg := heap.DefaultConfig()
		cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
		cfg.Workers = 1
		h := heap.MustNew(cfg)

		// Scenario 1: dropped reference chain, live guardian.
		tc := h.NewRoot(makeTconc(h))
		c := h.Cons(obj.FromFixnum(3), obj.Nil)
		b := h.Cons(obj.FromFixnum(2), c)
		a := h.Cons(obj.FromFixnum(1), b)
		h.InstallGuardian(c, tc.Get())
		h.InstallGuardian(b, tc.Get())
		h.InstallGuardian(a, tc.Get())
		_ = a // no root: the whole chain is dropped
		rep := h.Collect(0)
		if got := tconcIDs(h, tc.Get()); !reflect.DeepEqual(got, []int64{3, 2, 1}) {
			t.Fatalf("salvage order %v, want registration order [3 2 1]", got)
		}
		if rep.GuardianRounds != 2 {
			t.Fatalf("GuardianRounds = %d, want 2 (one salvage round + terminating round)", rep.GuardianRounds)
		}
		if len(rep.GuardianRoundDurations) != rep.GuardianRounds {
			t.Fatalf("GuardianRoundDurations has %d entries, want %d",
				len(rep.GuardianRoundDurations), rep.GuardianRounds)
		}
		if rep.GuardianSalvaged != 3 {
			t.Fatalf("GuardianSalvaged = %d, want 3", rep.GuardianSalvaged)
		}

		// Scenario 2: x and y registered with dropped guardian B
		// first, then B's tconc registered with live guardian A.
		// Round 1 can salvage only B's tconc (x and y's guardian is
		// still inaccessible when their entries are visited); round
		// 2 salvages x then y through the revived tconc.
		tcA := h.NewRoot(makeTconc(h))
		tcB := makeTconc(h) // unrooted: guardian B is dropped
		h.InstallGuardian(h.Cons(obj.FromFixnum(1), obj.Nil), tcB)
		h.InstallGuardian(h.Cons(obj.FromFixnum(2), obj.Nil), tcB)
		h.InstallGuardian(tcB, tcA.Get())
		rep = h.Collect(0)
		if rep.GuardianRounds != 3 {
			t.Fatalf("§3 chain: GuardianRounds = %d, want 3", rep.GuardianRounds)
		}
		if rep.GuardianSalvaged != 3 {
			t.Fatalf("§3 chain: GuardianSalvaged = %d, want 3", rep.GuardianSalvaged)
		}
		salvagedB, ok := tconcGet(h, tcA.Get())
		if !ok {
			t.Fatal("§3 chain: B's tconc was not salvaged into A")
		}
		if got := tconcIDs(h, salvagedB); !reflect.DeepEqual(got, []int64{1, 2}) {
			t.Fatalf("§3 chain: B's queue %v, want [1 2]", got)
		}

		// Scenario 3: same shape, but B's tconc entry registered
		// first. Its salvage happens before x's entry is visited in
		// the same round, so everything resolves in round 1.
		tcB2 := makeTconc(h)
		h.InstallGuardian(tcB2, tcA.Get())
		h.InstallGuardian(h.Cons(obj.FromFixnum(9), obj.Nil), tcB2)
		rep = h.Collect(0)
		if rep.GuardianRounds != 2 {
			t.Fatalf("mid-round salvage: GuardianRounds = %d, want 2", rep.GuardianRounds)
		}
		if rep.GuardianSalvaged != 2 {
			t.Fatalf("mid-round salvage: GuardianSalvaged = %d, want 2", rep.GuardianSalvaged)
		}
	})
}

// FuzzGuardian feeds fuzzer-chosen interleavings of guardian
// registration (held, dropped, chained guardian-with-guardian), root
// drops, tconc drains, and collections through one heap, with the
// verifier run after every collection. No ID may reach guardian A's
// tconc more often than it was registered with A — drained and
// still-queued IDs counted together. The corpus seeds include §3's
// guardian-registered-with-another-guardian chain.
func FuzzGuardian(f *testing.F) {
	// Seed: §3's chain — guardian B's tconc is registered with guardian
	// A; dropping B's root salvages the tconc itself into A while B's
	// own pending entry stays retrievable through it.
	f.Add([]byte{
		2, 10, // dropped cons registered with B
		4, 0, // register B's tconc with A
		5, 0, // drop B's root
		6, 3, // full collection: B's tconc salvaged into A
		6, 0, 8, 0, // young collection, drain one from A
	})
	// Seed: salvage order vs rounds — a dropped chain registered
	// inner-first, interleaved with held entries, over two collections.
	f.Add([]byte{
		0, 1, 3, 0, // rooted cons, registered (held)
		2, 5, 2, 6, 2, 7, // three dropped registrations
		6, 0, // young collection
		5, 0, // drop the root: held entry becomes salvageable
		6, 3, // full collection
		8, 0, 8, 1, // drains
	})
	// Seed: mixed churn across every opcode.
	f.Add([]byte{
		0, 3, 1, 9, 2, 4, 3, 1, 4, 0, 5, 2, 6, 1, 7, 5,
		2, 11, 6, 0, 8, 0, 6, 3, 2, 13, 6, 2, 8, 1,
	})
	f.Fuzz(runGuardianFuzz)
}

// runGuardianFuzz executes one fuzz input. Registrations with guardian
// A are counted by ID: a value is registered once, unless the input
// registers a rooted value again, and must be salvaged at most that
// often.
func runGuardianFuzz(t *testing.T, data []byte) {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	h := heap.MustNew(cfg)
	tcA := h.NewRoot(makeTconc(h))
	tcB := h.NewRoot(makeTconc(h))
	bAlive := true
	roots := []*heap.Root{h.NewRoot(h.Cons(obj.FromFixnum(0), obj.Nil))}
	nextID := int64(0)
	newGuarded := func() obj.Value {
		nextID++
		return h.Cons(obj.FromFixnum(nextID), obj.Nil)
	}
	registered := make(map[int64]int) // registrations with A, by ID
	regA := func(v obj.Value) {
		h.InstallGuardian(v, tcA.Get())
		if v.IsPair() && h.Car(v).IsFixnum() {
			registered[h.Car(v).FixnumValue()]++
		}
	}
	var drained []int64
	const maxOps = 100
	for i, step := 0, 0; i+1 < len(data) && step < maxOps; i, step = i+2, step+1 {
		op, arg := data[i]%9, data[i+1]
		switch op {
		case 0: // rooted cons
			roots = append(roots, h.NewRoot(newGuarded()))
		case 1: // rooted weak cons over a fresh guarded pair
			v := newGuarded()
			regA(v)
			roots = append(roots, h.NewRoot(h.WeakCons(v, obj.Nil)))
		case 2: // dropped cons registered with B if alive, else A
			if bAlive && arg%2 == 0 {
				h.InstallGuardian(newGuarded(), tcB.Get())
			} else {
				regA(newGuarded())
			}
		case 3: // register a rooted value (held)
			if v := roots[int(arg)%len(roots)].Get(); v.IsPointer() {
				regA(v)
			}
		case 4: // §3: register guardian B's tconc with guardian A
			if bAlive {
				regA(tcB.Get())
			}
		case 5: // drop a root (B's tconc root for arg==0, else workload roots)
			if arg == 0 && bAlive {
				tcB.Release()
				bAlive = false
			} else if len(roots) > 1 {
				j := int(arg) % len(roots)
				roots[j].Release()
				roots[j] = roots[len(roots)-1]
				roots = roots[:len(roots)-1]
			}
		case 6: // collect
			h.Collect(int(arg) % (h.MaxGeneration() + 1))
			if errs := h.Verify(); len(errs) > 0 {
				t.Fatalf("step %d: heap unsound: %v", step, errs[0])
			}
		case 7: // mutate
			if v := roots[int(arg)%len(roots)].Get(); v.IsPair() && !h.IsWeakPair(v) {
				h.SetCdr(v, obj.FromFixnum(int64(arg)))
			}
		case 8: // drain one salvaged item from A
			if v, ok := tconcGet(h, tcA.Get()); ok {
				if v.IsPair() && h.Car(v).IsFixnum() {
					drained = append(drained, h.Car(v).FixnumValue())
				} else {
					drained = append(drained, -1) // a salvaged tconc (B)
				}
			}
		}
	}
	h.Collect(h.MaxGeneration())
	if errs := h.Verify(); len(errs) > 0 {
		t.Fatalf("final: heap unsound: %v", errs[0])
	}
	salvaged := make(map[int64]int)
	for _, id := range append(drained, tconcIDsLoose(h, tcA.Get())...) {
		if id < 0 {
			continue // a salvaged tconc (B) or weak pair
		}
		if salvaged[id]++; salvaged[id] > registered[id] {
			t.Fatalf("ID %d salvaged %d times, registered %d (drained %v)", id, salvaged[id], registered[id], drained)
		}
	}
}

// tconcIDsLoose is tconcIDs for queues that may also contain salvaged
// tconcs (whose cars are pairs, not fixnums); those render as -1.
func tconcIDsLoose(h *heap.Heap, tc obj.Value) []int64 {
	var ids []int64
	for x := h.Car(tc); x != h.Cdr(tc); x = h.Cdr(x) {
		if item := h.Car(x); item.IsPair() && h.Car(item).IsFixnum() {
			ids = append(ids, h.Car(item).FixnumValue())
		} else {
			ids = append(ids, -1)
		}
	}
	return ids
}
