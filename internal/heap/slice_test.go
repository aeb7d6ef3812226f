package heap_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
)

// Tests for pause-budget (sliced) collections: Config.PauseBudget > 0
// splits the old-space sweep of a collection that includes generation
// >= 1 into bounded stop-the-world slices with mutator windows in
// between. The acceptance bar has three parts: the heap stays sound at
// every slice boundary (invariant 10 and the from-space relaxations of
// Verify), the report attributes pause per slice with the same
// phases-sum-to-pause contract as monolithic collections, and the
// guardian tconc order is bit-for-bit what PauseBudget == 0 produces.

// slicedHeap builds a legacy-mode heap with a live old generation big
// enough that a budgeted collection of gen 1 needs several slices:
// list is rooted, promoted to gen 1, and freshened so every test
// collection does real copy work.
func slicedHeap(t *testing.T, budget time.Duration) (*heap.Heap, *heap.Root) {
	t.Helper()
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	cfg.Workers = 1
	cfg.PauseBudget = budget
	h := heap.MustNew(cfg)
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 60000; i++ {
		p := h.Cons(fx(int64(i)), obj.Nil)
		lst.Set(h.Cons(p, lst.Get()))
		if i%16 == 0 {
			lst.Set(h.Cons(h.WeakCons(p, obj.Nil), lst.Get()))
		}
	}
	h.Collect(0) // promote the list to generation 1
	return h, lst
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

func TestSlicedCollectBasic(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		h, lst := slicedHeap(t, 200*time.Microsecond)
		before := listLen(h, lst.Get())
		h.EnableTrace(2)

		rep := h.Collect(1)
		h.MustVerify()
		if got := listLen(h, lst.Get()); got != before {
			t.Fatalf("list length %d after sliced collection, want %d", got, before)
		}
		if len(rep.Slices) < 2 {
			t.Fatalf("collection of a %d-pair old space under a 200µs budget ran %d slices, want >= 2",
				before, len(rep.Slices))
		}
		var pauseSum time.Duration
		var phaseSums [heap.NumPhases]time.Duration
		for _, s := range rep.Slices {
			pauseSum += s.Pause
			for i, d := range s.Phases {
				phaseSums[i] += d
			}
		}
		if rep.Pause != pauseSum {
			t.Fatalf("Pause %v != sum of slice pauses %v", rep.Pause, pauseSum)
		}
		if rep.Phases != phaseSums {
			t.Fatalf("Phases %v != element-wise sum of slice phases %v", rep.Phases, phaseSums)
		}
		// Final-slice pinning: guardian/weak/hooks/free time appears
		// only in the last slice.
		for i, s := range rep.Slices[:len(rep.Slices)-1] {
			for _, p := range []heap.Phase{heap.PhaseGuardian, heap.PhaseWeak, heap.PhaseHooks, heap.PhaseFree} {
				if s.Phases[p] != 0 {
					t.Fatalf("slice %d accrued %v in final-only phase %v", i, s.Phases[p], p)
				}
			}
		}
		evs := h.TraceEvents()
		ev := evs[len(evs)-1]
		if len(ev.Slices) != len(rep.Slices) {
			t.Fatalf("trace event has %d slices, report %d", len(ev.Slices), len(rep.Slices))
		}
		for i, s := range rep.Slices {
			if ev.Slices[i].PauseNS != s.Pause.Nanoseconds() {
				t.Fatalf("trace slice %d pause %d, report %v", i, ev.Slices[i].PauseNS, s.Pause)
			}
		}

		// Generation-0 collections are never sliced, budget or not.
		if rep0 := h.Collect(0); len(rep0.Slices) != 0 {
			t.Fatalf("gen-0 collection produced %d slices", len(rep0.Slices))
		}
	})
}

// TestPhasesSumToPauseSliced is the sliced-mode extension of
// TestPhasesSumToPause: each slice's phase durations must sum to that
// slice's pause. Slice pauses sit near timer granularity, so the
// per-slice tolerance is 5% plus a small absolute epsilon, and one
// slice of the whole run may miss it: a goroutine descheduled between
// two phase timestamps (seen on loaded CI hosts, a few hundred
// microseconds) is host noise, while an unattributed or doubly
// attributed step recurs in every collection.
func TestPhasesSumToPauseSliced(t *testing.T) {
	h, lst := slicedHeap(t, time.Millisecond)
	var misses []string
	for round := 0; round < 3; round++ {
		for i := 0; i < 10000; i++ {
			lst.Set(h.Cons(h.Cons(fx(int64(i)), obj.Nil), lst.Get()))
		}
		rep := h.Collect(1)
		if len(rep.Slices) == 0 {
			t.Fatalf("round %d: no slices recorded", round)
		}
		for si, s := range rep.Slices {
			if s.Pause <= 0 {
				t.Fatalf("round %d slice %d: no pause recorded", round, si)
			}
			sum := phaseSum(s.Phases)
			diff := s.Pause - sum
			if diff < 0 {
				diff = -diff
			}
			if float64(diff) > 0.05*float64(s.Pause)+float64(50*time.Microsecond) {
				misses = append(misses, fmt.Sprintf("round %d slice %d/%d: phases sum to %v but slice pause is %v",
					round, si, len(rep.Slices), sum, s.Pause))
			}
		}
	}
	if len(misses) > 1 {
		t.Fatalf("%d slices miss the attribution tolerance:\n%s", len(misses), strings.Join(misses, "\n"))
	}
}

// TestSlicedWindowInvariants runs the verifier inside every mutator
// window of a sliced collection (via the test-only window hook): the
// parked sweep work must satisfy invariant 10 — every staged item in a
// live current-stamp segment — and the heap's partially-forwarded
// state must pass the sliceActive-relaxed structural checks.
func TestSlicedWindowInvariants(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		h, _ := slicedHeap(t, 100*time.Microsecond)
		windows := 0
		heap.SetSliceWindowHook(h, func() {
			windows++
			if errs := h.Verify(); len(errs) > 0 {
				t.Errorf("window %d: heap unsound between slices: %v", windows, errs[0])
			}
		})
		defer heap.SetSliceWindowHook(h, nil)
		rep := h.Collect(1)
		if windows == 0 {
			t.Fatalf("no mutator windows opened (slices=%d)", len(rep.Slices))
		}
		if windows != len(rep.Slices)-1 {
			t.Fatalf("%d windows but %d slices (want slices-1 windows)", windows, len(rep.Slices))
		}
		h.MustVerify()
	})
}

// TestSlicedAutoCollectDefer pins the satellite-2 semantics: an
// automatic collection request arriving while a sliced collection is
// in progress defers (returns nil) instead of panicking — both from
// collector-machinery context (a post-collect hook, where inCollect is
// still set) and from a mutator window (where the election loop sees
// `collecting` held by the sliced round).
func TestSlicedAutoCollectDefer(t *testing.T) {
	h, _ := slicedHeap(t, 100*time.Microsecond)
	hookRan, windowRan := false, false
	h.AddPostCollectHook(func(hh *heap.Heap, rep *heap.CollectionReport) {
		hookRan = true
		if got := hh.CollectAuto(); got != nil {
			t.Errorf("CollectAuto from a sliced collection's hook = %v, want nil (defer)", got)
		}
	})
	heap.SetSliceWindowHook(h, func() {
		windowRan = true
		if got := h.CollectAuto(); got != nil {
			t.Errorf("CollectAuto from a mutator window = %v, want nil (defer)", got)
		}
	})
	defer heap.SetSliceWindowHook(h, nil)
	h.Collect(1)
	if !hookRan || !windowRan {
		t.Fatalf("defer paths not exercised: hook=%v window=%v", hookRan, windowRan)
	}
	h.MustVerify()
}

// TestGuardianSlicedDeterminism is the tentpole's ordering gate: the
// guardian tconc history of the randomized workload at PauseBudget > 0
// must be bit-for-bit the PauseBudget == 0 history. Guardian salvage
// runs pinned to the final slice after the sweep fixpoint fully
// drains, so slicing must be unobservable through the tconc.
func TestGuardianSlicedDeterminism(t *testing.T) {
	const steps = 1200
	const seed = 20260808
	ref, refSalvaged, refHeld := guardianWorkload(t, 0, seed, steps)
	if refSalvaged == 0 || refHeld == 0 {
		t.Fatalf("weak workload: salvaged=%d held=%d", refSalvaged, refHeld)
	}
	// 30µs forces many slices per old-space collection while the
	// workload's own collections stay cheap enough to terminate.
	got, salvaged, held := guardianWorkload(t, 30*time.Microsecond, seed, steps)
	if salvaged != refSalvaged || held != refHeld {
		t.Fatalf("budgeted: salvaged/held %d/%d, unbudgeted %d/%d",
			salvaged, held, refSalvaged, refHeld)
	}
	if len(got) != len(ref) {
		t.Fatalf("budgeted: %d collections, want %d", len(got), len(ref))
	}
	for c := range ref {
		if !reflect.DeepEqual(got[c], ref[c]) {
			t.Fatalf("budgeted: tconc order after collection %d diverges:\nunbudgeted: %v\nbudgeted:   %v",
				c, ref[c], got[c])
		}
	}
}

// TestSlicedPauseBounded checks the budget actually bounds slices: a
// collection whose monolithic pause is far above the budget must split
// into slices that stay near it. Any single slice can be descheduled
// for a scheduler tick on a shared host (a 4 ms slice under a 1 ms
// budget was observed in 1 run of 10), so the assertion is on robust
// statistics — the median slice within 2x the budget and the 90th
// percentile within 4x — which still fail by an order of magnitude if
// the deadline check is lost (the collection then runs as one or two
// slices of tens of milliseconds). The committed benchmark holds the
// real budget+20% line on quiet hardware.
func TestSlicedPauseBounded(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing-sensitive")
	}
	const budget = time.Millisecond
	h, lst := slicedHeap(t, budget)
	for i := 0; i < 120000; i++ {
		lst.Set(h.Cons(h.Cons(fx(int64(i)), obj.Nil), lst.Get()))
	}
	h.Collect(0)
	rep := h.Collect(1)
	if len(rep.Slices) < 3 {
		t.Fatalf("large old space under a 1ms budget ran %d slices, want >= 3", len(rep.Slices))
	}
	pauses := make([]time.Duration, len(rep.Slices))
	for i, s := range rep.Slices {
		pauses[i] = s.Pause
	}
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	median, p90 := pauses[len(pauses)/2], pauses[len(pauses)*9/10]
	if median > 2*budget || p90 > 4*budget {
		t.Fatalf("slice pauses blow through the %v budget: median %v, p90 %v, max %v (pause %v over %d slices)",
			budget, median, p90, pauses[len(pauses)-1], rep.Pause, len(rep.Slices))
	}
	h.MustVerify()
}

// TestSlicedDecisionAfterClamp: the slicing decision is made on the
// generation actually collected. On a one-generation heap Collect(3)
// is clamped to generation 0, and Config.PauseBudget promises that
// generation-0 collections stay fully stop-the-world — it used to be
// tested on the caller's g and ran sliced.
func TestSlicedDecisionAfterClamp(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Generations = 1
	cfg.PauseBudget = 50 * time.Microsecond
	h := heap.MustNew(cfg)
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 20000; i++ {
		lst.Set(h.Cons(fx(int64(i)), lst.Get()))
	}
	windows := 0
	heap.SetSliceWindowHook(h, func() { windows++ })
	defer heap.SetSliceWindowHook(h, nil)
	rep := h.Collect(3)
	if rep.Gen != 0 || len(rep.Slices) != 0 || windows != 0 {
		t.Fatalf("Collect(3) on a one-generation heap: gen %d, %d slices, %d windows; want a monolithic generation-0 collection",
			rep.Gen, len(rep.Slices), windows)
	}
	if got := listLen(h, lst.Get()); got != 20000 {
		t.Fatalf("list length %d after collection, want 20000", got)
	}
	h.MustVerify()
}

// TestSlicedNoDeadlineEquivalence: a monolithic collection is a sliced
// one whose deadline never arrives. The same seeded guardian/weak
// workload on heaps with PauseBudget 0 and PauseBudget 1h
// must be indistinguishable: the tconc salvage order, the state of
// every weak pair, and each collection's copy and sweep figures —
// SweepPasses included, which counts kleene-sweep waves in both — are
// identical; the only trace of the budget is the single slice recorded
// for collections that include old space.
func TestSlicedNoDeadlineEquivalence(t *testing.T) {
	type collection struct {
		gen                                                 int
		tconc, weak                                         []int64
		sweepPasses, wordsCopied, cellsSwept, objectsCopied uint64
	}
	run := func(budget time.Duration) []collection {
		cfg := heap.DefaultConfig()
		cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30} // collections are explicit ops only
		cfg.PauseBudget = budget
		h := heap.MustNew(cfg)
		tc := h.NewRoot(makeTconc(h))
		var roots, weaks []*heap.Root
		var out []collection
		nextID := int64(0)
		guarded := func() obj.Value {
			nextID++
			v := h.Cons(fx(nextID), h.MakeVector(3, fx(nextID)))
			h.InstallGuardian(v, tc.Get())
			return v
		}
		rng := rand.New(rand.NewSource(20260928))
		for i := 0; i < 1500; i++ {
			switch op := rng.Intn(100); {
			case op < 25: // held registration
				roots = append(roots, h.NewRoot(guarded()))
			case op < 40: // dropped registration
				guarded()
			case op < 55: // weak pair over a dropped guarded value, chained to a rooted one
				w := h.WeakCons(guarded(), obj.Nil)
				if len(roots) > 0 {
					h.SetCdr(w, roots[rng.Intn(len(roots))].Get())
				}
				weaks = append(weaks, h.NewRoot(w))
			case op < 75: // drop a root
				if len(roots) > 2 {
					j := rng.Intn(len(roots))
					roots[j].Release()
					roots[j] = roots[len(roots)-1]
					roots = roots[:len(roots)-1]
				}
			default:
				rep := h.Collect(rng.Intn(h.MaxGeneration() + 1))
				h.MustVerify()
				wantSlices := 0
				if budget > 0 && rep.Gen > 0 {
					wantSlices = 1
				}
				if len(rep.Slices) != wantSlices {
					t.Fatalf("budget %v: collection of generation %d recorded %d slices, want %d",
						budget, rep.Gen, len(rep.Slices), wantSlices)
				}
				c := collection{gen: rep.Gen, tconc: tconcIDs(h, tc.Get()),
					sweepPasses: rep.SweepPasses, wordsCopied: rep.WordsCopied,
					cellsSwept: rep.CellsSwept, objectsCopied: rep.ObjectsCopied}
				for _, w := range weaks {
					id := int64(-1) // broken
					if v := h.Car(w.Get()); v.IsPair() {
						id = h.Car(v).FixnumValue()
					}
					c.weak = append(c.weak, id)
				}
				out = append(out, c)
			}
		}
		return out
	}
	mono, hour := run(0), run(time.Hour)
	if len(mono) == 0 || len(mono) != len(hour) {
		t.Fatalf("%d monolithic collections, %d with an unreachable deadline", len(mono), len(hour))
	}
	salvaged, kept := false, false
	for i := range mono {
		if !reflect.DeepEqual(mono[i], hour[i]) {
			t.Fatalf("collection %d diverges:\nPauseBudget 0:  %+v\nPauseBudget 1h: %+v", i, mono[i], hour[i])
		}
		salvaged = salvaged || len(mono[i].tconc) > 0
		for _, id := range mono[i].weak {
			kept = kept || id > 0
		}
	}
	if !salvaged || !kept {
		t.Fatalf("weak workload: salvaged=%v, weak pointer kept across a salvage=%v", salvaged, kept)
	}
}

// TestMutatorStressPauseBudget is the concurrent gate for sliced
// collections (and the -race target of scripts/ci.sh): N mutator
// goroutines allocate, mutate, register guardians, and trigger
// collections against a 200µs pause budget, so mutator windows overlap
// real allocation and write-barrier traffic, the window store buffer
// and gen-0 chain scan see concurrent producers, and the read barrier
// is exercised on values fished out of unswept cells. It runs at both
// Config.Workers values Validate accepts, 1 and unset; each is the one
// copier.
func TestMutatorStressPauseBudget(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := heap.DefaultConfig()
			cfg.Workers = workers
			cfg.Policy = heap.RadixPolicy{Trigger: 1 << 15}
			cfg.PauseBudget = 200 * time.Microsecond
			h := heap.MustNew(cfg)
			tc := h.NewRoot(makeTconc(h))
			const N = 4
			iters := 4000
			if testing.Short() {
				iters = 600
			}
			var wg sync.WaitGroup
			for i := 0; i < N; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					stressMutator(h, tc, iters, int64(id)*104729+int64(workers)+1)
				}(i)
			}
			wg.Wait()
			h.MustVerify()
			rep := h.Collect(h.MaxGeneration())
			if len(rep.Slices) == 0 {
				t.Fatal("full collection with PauseBudget set recorded no slices")
			}
			h.MustVerify()
			tc.Release()
		})
	}
}
