package heap_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
)

// This file is the acceptance suite for the parallel guardian salvage
// fixpoint: the salvage order observable through a guardian's tconc
// must be bit-for-bit identical at every worker count, because the
// paper's Figure 4 mutator protocol reads the tconc positionally and
// programs may rely on retrieval order matching registration order.

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
// history is the collector's doing. A non-zero budget runs the same
// workload with pause-budgeted (sliced) collections, which must be
// equally unobservable here (TestGuardianSlicedDeterminism).
func guardianWorkload(t *testing.T, workers int, budget time.Duration, seed int64, steps int) (history [][]int64, salvaged, held uint64) {
	t.Helper()
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30} // collections are explicit ops only
	cfg.Workers = workers
	cfg.PauseBudget = budget
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
				t.Fatalf("workers=%d step %d: heap unsound: %v", workers, i, errs[0])
			}
			history = append(history, tconcIDs(h, tc.Get()))
		}
	}
	h.Collect(h.MaxGeneration())
	history = append(history, tconcIDs(h, tc.Get()))
	return history, h.Stats.GuardianEntriesSalvaged, h.Stats.GuardianEntriesHeld
}

// TestGuardianParallelDeterminism is the tentpole gate: the guardian
// tconc's contents and order after every collection of a randomized
// workload must be identical across Workers 1, 2, 8, and the adaptive
// policy. The parallel fixpoint classifies entries concurrently but
// performs every salvage decision and tconc append sequentially in
// registration order, so worker count must be unobservable here.
func TestGuardianParallelDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 71, 20260806} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const steps = 1500
			ref, refSalvaged, refHeld := guardianWorkload(t, 1, 0, seed, steps)
			if refSalvaged == 0 || refHeld == 0 {
				t.Fatalf("weak workload: salvaged=%d held=%d", refSalvaged, refHeld)
			}
			for _, workers := range []int{2, 8, 0} {
				got, salvaged, held := guardianWorkload(t, workers, 0, seed, steps)
				if salvaged != refSalvaged || held != refHeld {
					t.Fatalf("workers=%d: salvaged/held %d/%d, sequential %d/%d",
						workers, salvaged, held, refSalvaged, refHeld)
				}
				if len(got) != len(ref) {
					t.Fatalf("workers=%d: %d collections, sequential %d", workers, len(got), len(ref))
				}
				for c := range ref {
					if !reflect.DeepEqual(got[c], ref[c]) {
						t.Fatalf("workers=%d: tconc order after collection %d diverges:\nsequential: %v\nparallel:   %v",
							workers, c, ref[c], got[c])
					}
				}
			}
		})
	}
}

// TestGuardianChainSalvageOrder pins the §4 fixpoint semantics the
// parallel merge must preserve, in three scenarios at every worker
// count:
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
//     registered *before* the entry that needs it, the sequential
//     algorithm observes B's salvage mid-round and finishes in one
//     salvage round (rounds = 2). A parallel round-start snapshot
//     says "inaccessible" for the later entry, so the merge's
//     re-check of negative verdicts is exactly what keeps rounds —
//     and tconc order — identical to sequential.
func TestGuardianChainSalvageOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := heap.DefaultConfig()
			cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
			cfg.Workers = workers
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
}

// TestCollectionReportPopulated checks the report returned by Collect:
// identity with LastReport, per-collection deltas rather than
// cumulative counters, the protected-list snapshot, and Clone's
// independence from the heap-owned record.
func TestCollectionReportPopulated(t *testing.T) {
	h := heap.NewDefault()
	if h.LastReport() != nil {
		t.Fatal("LastReport non-nil before any collection")
	}
	tc := h.NewRoot(makeTconc(h))
	keep := h.NewRoot(h.Cons(obj.FromFixnum(7), obj.Nil))
	h.InstallGuardian(keep.Get(), tc.Get())                         // held
	h.InstallGuardian(h.Cons(obj.FromFixnum(1), obj.Nil), tc.Get()) // salvaged

	rep := h.Collect(0)
	if rep == nil || rep != h.LastReport() {
		t.Fatal("Collect must return the heap's LastReport record")
	}
	if rep.Seq != 1 || rep.Gen != 0 || rep.Target != 1 {
		t.Fatalf("report seq/gen/target = %d/%d/%d, want 1/0/1", rep.Seq, rep.Gen, rep.Target)
	}
	if rep.Pause <= 0 {
		t.Fatal("report records no pause")
	}
	var phaseSum int64
	for _, d := range rep.Phases {
		phaseSum += d.Nanoseconds()
	}
	if phaseSum <= 0 || phaseSum > rep.Pause.Nanoseconds() {
		t.Fatalf("phase sum %d vs pause %d", phaseSum, rep.Pause.Nanoseconds())
	}
	if rep.GuardianScanned != 2 || rep.GuardianSalvaged != 1 || rep.GuardianHeld != 1 {
		t.Fatalf("guardian deltas scanned/salvaged/held = %d/%d/%d, want 2/1/1",
			rep.GuardianScanned, rep.GuardianSalvaged, rep.GuardianHeld)
	}
	if rep.GuardianRounds < 2 {
		t.Fatalf("GuardianRounds = %d, want >= 2 (salvage round + terminating round)", rep.GuardianRounds)
	}
	if len(rep.ProtectedByGen) != h.Config().Generations {
		t.Fatalf("ProtectedByGen has %d entries, want %d", len(rep.ProtectedByGen), h.Config().Generations)
	}
	if rep.ProtectedByGen[1] != 1 { // the held entry migrated to the target generation
		t.Fatalf("ProtectedByGen = %v, want the held entry in gen 1", rep.ProtectedByGen)
	}
	if rep.WordsCopied == 0 || rep.SweepPasses == 0 {
		t.Fatalf("copy work missing from report: words=%d passes=%d", rep.WordsCopied, rep.SweepPasses)
	}

	// Deltas, not cumulative values: a second collection with no new
	// guardian work reports zero salvages even though the cumulative
	// Stats counter stays at 1.
	clone := rep.Clone()
	rep2 := h.Collect(0)
	if rep2.Seq != 2 {
		t.Fatalf("second report seq = %d, want 2", rep2.Seq)
	}
	if rep2.GuardianSalvaged != 0 {
		t.Fatalf("second collection's salvage delta = %d, want 0", rep2.GuardianSalvaged)
	}
	if h.Stats.GuardianEntriesSalvaged != 1 {
		t.Fatalf("cumulative salvaged = %d, want 1", h.Stats.GuardianEntriesSalvaged)
	}
	// The heap-owned record was overwritten in place; the clone kept
	// the first collection's values.
	if clone.Seq != 1 || clone.GuardianSalvaged != 1 {
		t.Fatalf("clone mutated by the next collection: %+v", clone)
	}
	if h.LastReport() != rep2 {
		t.Fatal("LastReport does not return the heap-owned record")
	}
}

// TestPostCollectHookReceivesReport checks the redesigned hook
// signature: hooks observe the same record Collect returns, with the
// collection's counters and guardian outcome already final (only the
// hooks/free phases and the total pause settle afterwards).
func TestPostCollectHookReceivesReport(t *testing.T) {
	h := heap.NewDefault()
	tc := h.NewRoot(makeTconc(h))
	h.InstallGuardian(h.Cons(obj.FromFixnum(1), obj.Nil), tc.Get())
	var hookRep *heap.CollectionReport
	var hookSalvaged uint64
	var hookProtected []int
	h.AddPostCollectHook(func(hh *heap.Heap, rep *heap.CollectionReport) {
		hookRep = rep
		hookSalvaged = rep.GuardianSalvaged
		hookProtected = append([]int(nil), rep.ProtectedByGen...)
	})
	rep := h.Collect(0)
	if hookRep != rep {
		t.Fatal("hook received a different record than Collect returned")
	}
	if hookSalvaged != 1 {
		t.Fatalf("hook saw salvage delta %d, want 1", hookSalvaged)
	}
	if len(hookProtected) != h.Config().Generations {
		t.Fatalf("hook saw ProtectedByGen %v", hookProtected)
	}
}

// TestGuardianWorkerAttribution checks that a parallel collection with
// guardian work reports the guardian phase's per-worker busy/idle
// split separately from the main sweep's.
func TestGuardianWorkerAttribution(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Workers = 3
	h := heap.MustNew(cfg)
	tc := h.NewRoot(makeTconc(h))
	var list obj.Value = obj.Nil
	for i := 0; i < 2000; i++ {
		list = h.Cons(obj.FromFixnum(int64(i)), list)
	}
	r := h.NewRoot(list)
	defer r.Release()
	for i := 0; i < 200; i++ {
		h.InstallGuardian(h.Cons(obj.FromFixnum(int64(i)), obj.Nil), tc.Get())
	}
	h.EnableTrace(2)
	rep := h.Collect(0)
	if len(rep.WorkerGuardianBusy) != 3 || len(rep.WorkerGuardianIdle) != 3 {
		t.Fatalf("guardian worker split has %d/%d entries, want 3/3",
			len(rep.WorkerGuardianBusy), len(rep.WorkerGuardianIdle))
	}
	var busy int64
	for _, d := range rep.WorkerGuardianBusy {
		if d < 0 {
			t.Fatalf("negative guardian busy time: %v", rep.WorkerGuardianBusy)
		}
		busy += d.Nanoseconds()
	}
	if busy <= 0 {
		t.Fatal("no guardian-phase worker time recorded despite 200 registrations")
	}
	evs := h.TraceEvents()
	ev := evs[len(evs)-1]
	if len(ev.WorkerGuardianBusyNS) != 3 || ev.GuardianRounds != rep.GuardianRounds {
		t.Fatalf("trace event disagrees with report: %+v", ev)
	}
	if len(ev.GuardianRoundNS) != rep.GuardianRounds {
		t.Fatalf("trace guardian_round_ns has %d entries, want %d",
			len(ev.GuardianRoundNS), rep.GuardianRounds)
	}
}

// TestConfigValidate checks the redesigned construction API: New
// returns the Validate error instead of panicking, MustNew still
// panics, and zero defaults remain accepted.
func TestConfigValidate(t *testing.T) {
	bad := []struct {
		name string
		mut  func(*heap.Config)
		want string
	}{
		{"zero generations", func(c *heap.Config) { c.Generations = 0 }, "Generations"},
		{"negative trigger", func(c *heap.Config) { c.Policy = heap.RadixPolicy{Trigger: -1} }, "Trigger"},
		{"radix one", func(c *heap.Config) { c.Policy = heap.RadixPolicy{Radix: 1} }, "Radix"},
		{"negative radix", func(c *heap.Config) { c.Policy = heap.RadixPolicy{Radix: -4} }, "Radix"},
		{"negative max segments", func(c *heap.Config) { c.MaxSegments = -2 }, "MaxSegments"},
		{"autotune over a set radix", func(c *heap.Config) { c.AutoTune, c.Policy = true, heap.RadixPolicy{Radix: 8} }, "AutoTune"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			cfg := heap.DefaultConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
			if h, err := heap.New(cfg); err == nil || h != nil {
				t.Fatalf("New() = (%v, %v), want (nil, error)", h, err)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("MustNew did not panic on an invalid Config")
				}
			}()
			heap.MustNew(cfg)
		})
	}
	// Zero values with documented defaults are normalized, not rejected.
	cfg := heap.Config{Generations: 2}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	h, err := heap.New(cfg)
	if err != nil {
		t.Fatalf("New(minimal) failed: %v", err)
	}
	if h.TriggerWords() != heap.DefaultTriggerWords || h.Policy().Name() != "radix" {
		t.Fatalf("defaults not applied: trigger %d, policy %q", h.TriggerWords(), h.Policy().Name())
	}
}

// FuzzGuardianParallel feeds fuzzer-chosen interleavings of guardian
// registration (held, dropped, chained guardian-with-guardian), root
// drops, tconc drains, and collections through sequential and parallel
// heaps, requiring the exact salvage ID order — the paper's observable
// — to match, with the verifier run after every collection. The corpus
// seeds include §3's guardian-registered-with-another-guardian chain.
func FuzzGuardianParallel(f *testing.F) {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := runGuardianFuzz(t, data, 1)
		for _, workers := range []int{4, 0} {
			par := runGuardianFuzz(t, data, workers)
			if seq != par {
				t.Fatalf("guardian outcome diverges at workers=%d:\nsequential: %s\nparallel:   %s",
					workers, seq, par)
			}
		}
	})
}

// runGuardianFuzz executes one fuzz input at the given worker count
// and renders the observable outcome — drained IDs in drain order,
// the final tconc queues, and the guardian counters — as a string.
func runGuardianFuzz(t *testing.T, data []byte, workers int) string {
	t.Helper()
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	cfg.Workers = workers
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
	var drained []int64
	const maxOps = 100
	for i, step := 0, 0; i+1 < len(data) && step < maxOps; i, step = i+2, step+1 {
		op, arg := data[i]%9, data[i+1]
		switch op {
		case 0: // rooted cons
			roots = append(roots, h.NewRoot(newGuarded()))
		case 1: // rooted weak cons over a fresh guarded pair
			v := newGuarded()
			h.InstallGuardian(v, tcA.Get())
			roots = append(roots, h.NewRoot(h.WeakCons(v, obj.Nil)))
		case 2: // dropped cons registered with B if alive, else A
			tc := tcA
			if bAlive && arg%2 == 0 {
				tc = tcB
			}
			h.InstallGuardian(newGuarded(), tc.Get())
		case 3: // register a rooted value (held)
			if v := roots[int(arg)%len(roots)].Get(); v.IsPointer() {
				h.InstallGuardian(v, tcA.Get())
			}
		case 4: // §3: register guardian B's tconc with guardian A
			if bAlive {
				h.InstallGuardian(tcB.Get(), tcA.Get())
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
				t.Fatalf("workers=%d step %d: heap unsound: %v", workers, step, errs[0])
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
		t.Fatalf("workers=%d final: heap unsound: %v", workers, errs[0])
	}
	finalA := tconcIDsLoose(h, tcA.Get())
	return fmt.Sprintf("drained=%v finalA=%v salvaged=%d held=%d dropped=%d",
		drained, finalA, h.Stats.GuardianEntriesSalvaged,
		h.Stats.GuardianEntriesHeld, h.Stats.GuardianEntriesDropped)
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
