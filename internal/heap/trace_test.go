package heap_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/seg"
)

func fx(n int64) obj.Value { return obj.FromFixnum(n) }

// churn allocates short-lived garbage in generation 0.
func churn(h *heap.Heap, pairs int) {
	for i := 0; i < pairs; i++ {
		h.Cons(fx(int64(i)), obj.Nil)
	}
}

func phaseSum(ph [heap.NumPhases]time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ph {
		sum += d
	}
	return sum
}

// TestPhasesSumToPause is the acceptance check for pause attribution:
// the per-phase durations of a collection account for the whole pause
// to within 5%.
func TestPhasesSumToPause(t *testing.T) {
	h := heap.NewDefault()
	// A workload big enough that the pause dwarfs timer granularity:
	// a long tenured list (copy work), weak pairs (weak pass), dirty
	// cells (old scan), and a guardian (guardian phase).
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 50000; i++ {
		p := h.Cons(fx(int64(i)), obj.Nil)
		lst.Set(h.Cons(p, lst.Get()))
		if i%10 == 0 {
			lst.Set(h.Cons(h.WeakCons(p, obj.Nil), lst.Get()))
		}
	}
	tc := h.NewRoot(h.Cons(h.Cons(obj.False, obj.False), obj.False))
	h.SetCdr(tc.Get(), h.Car(tc.Get()))
	for i := 0; i < 100; i++ {
		h.InstallGuardian(h.Cons(fx(int64(i)), obj.Nil), tc.Get())
	}
	h.AddPostCollectHook(func(*heap.Heap, *heap.CollectionReport) {})

	for round := 0; round < 5; round++ {
		g := round % h.MaxGeneration()
		// Fresh live data every round so each collection does real
		// copy work and the pause dwarfs timer granularity.
		for i := 0; i < 10000; i++ {
			lst.Set(h.Cons(h.Cons(fx(int64(i)), obj.Nil), lst.Get()))
		}
		h.SetCar(lst.Get(), h.Cons(fx(-1), obj.Nil)) // keep the dirty set busy
		rep := h.Collect(g)
		pause := rep.Pause
		sum := phaseSum(rep.Phases)
		if pause <= 0 {
			t.Fatalf("round %d: no pause recorded", round)
		}
		diff := pause - sum
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.05*float64(pause) {
			t.Fatalf("round %d: phases sum to %v but pause is %v (%.1f%% apart)",
				round, sum, pause, 100*float64(diff)/float64(pause))
		}
	}
	// Totals accumulate like TotalPause.
	if got := phaseSum(h.Stats.PhaseTotals); got > h.Stats.TotalPause {
		t.Fatalf("phase totals %v exceed total pause %v", got, h.Stats.TotalPause)
	}
}

// TestPhaseAttribution checks that work lands in the right column:
// a conservative-scan configuration accrues old-scan time, copy-heavy
// collections accrue sweep time, and every collection records phases.
func TestPhaseAttribution(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.UseDirtySet = false
	h := heap.MustNew(cfg)
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 20000; i++ {
		lst.Set(h.Cons(fx(int64(i)), lst.Get()))
	}
	h.Collect(h.MaxGeneration())
	h.Collect(h.MaxGeneration())
	h.Stats.Reset()
	churn(h, 1000)
	rep := h.Collect(0)
	if rep.Phases[heap.PhaseOldScan] <= 0 {
		t.Fatal("conservative old scan recorded no old-scan time")
	}
	if rep.Phases[heap.PhaseSweep] <= 0 {
		t.Fatal("no sweep time recorded")
	}
}

// TestTraceRing checks ring capacity, ordering, and event contents.
func TestTraceRing(t *testing.T) {
	h := heap.NewDefault()
	h.EnableTrace(4)
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 6; i++ {
		for j := 0; j < 100; j++ {
			lst.Set(h.Cons(fx(int64(j)), lst.Get()))
		}
		h.Collect(0)
	}
	evs := h.TraceEvents()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(3+i) {
			t.Fatalf("event %d has seq %d, want %d (oldest-first)", i, ev.Seq, 3+i)
		}
		if ev.Gen != 0 || ev.Target != 1 {
			t.Fatalf("event %d: gen %d target %d, want 0/1", i, ev.Gen, ev.Target)
		}
		if ev.PauseNS <= 0 {
			t.Fatalf("event %d: no pause", i)
		}
		if ev.WordsCopied == 0 {
			t.Fatalf("event %d: no copy work recorded", i)
		}
		var sum int64
		for _, ns := range ev.PhaseNS {
			sum += ns
		}
		if sum <= 0 || sum > ev.PauseNS {
			t.Fatalf("event %d: phase sum %d vs pause %d", i, sum, ev.PauseNS)
		}
	}
	// Phase durations are exposed by name too.
	pd := evs[0].PhaseDurations()
	if len(pd) != int(heap.NumPhases) {
		t.Fatalf("PhaseDurations has %d entries, want %d", len(pd), heap.NumPhases)
	}
	if _, ok := pd["guardian"]; !ok {
		t.Fatal("PhaseDurations missing guardian phase")
	}
	h.EnableTrace(0)
	if h.TraceEnabled() || h.TraceEvents() != nil {
		t.Fatal("EnableTrace(0) did not disable the ring")
	}
}

// TestTraceFunc checks the per-collection callback and its counter
// deltas (the guardian figures must be this collection's, not
// cumulative).
func TestTraceFunc(t *testing.T) {
	h := heap.NewDefault()
	tc := h.NewRoot(h.Cons(h.Cons(obj.False, obj.False), obj.False))
	h.SetCdr(tc.Get(), h.Car(tc.Get()))
	var events []heap.TraceEvent
	h.SetTraceFunc(func(ev heap.TraceEvent) { events = append(events, ev) })

	h.InstallGuardian(h.Cons(fx(1), obj.Nil), tc.Get()) // dropped: salvaged
	h.Collect(0)
	h.InstallGuardian(h.Cons(fx(2), obj.Nil), tc.Get())
	h.Collect(0)
	if len(events) != 2 {
		t.Fatalf("callback ran %d times, want 2", len(events))
	}
	for i, ev := range events {
		if ev.GuardianSalvaged != 1 {
			t.Fatalf("event %d: salvaged %d, want per-collection delta 1", i, ev.GuardianSalvaged)
		}
	}
	h.SetTraceFunc(nil)
	h.Collect(0)
	if len(events) != 2 {
		t.Fatal("callback ran after removal")
	}
}

// TestSweepPassCounting asserts the per-wave semantics: a chain of k
// pairs linked through their cars, reached from a single root, is
// discovered one link per pass, so a collection of it records exactly
// k sweep passes; an empty collection records none.
func TestSweepPassCounting(t *testing.T) {
	h := heap.NewDefault()
	h.Collect(0)
	if got := h.Stats.SweepPasses; got != 0 {
		t.Fatalf("empty collection recorded %d sweep passes, want 0", got)
	}

	const k = 5
	chain := obj.Value(fx(0))
	for i := 0; i < k; i++ {
		chain = h.Cons(chain, obj.Nil)
	}
	r := h.NewRoot(chain)
	h.Stats.Reset()
	h.Collect(0)
	if got := h.Stats.SweepPasses; got != k {
		t.Fatalf("car chain of %d pairs: %d sweep passes, want %d", k, got, k)
	}
	r.Release()
}

// TestSweepPassCdrChainIsOnePass: the forward that reaches a list's
// head copies the whole cdr chain in list order, so a list of k pairs
// is swept in one pass, each copy's cdr the next slot of to-space.
func TestSweepPassCdrChainIsOnePass(t *testing.T) {
	h := heap.NewDefault()
	const k = 1000
	lst := obj.Nil
	for i := 0; i < k; i++ {
		lst = h.Cons(fx(int64(i)), lst)
	}
	r := h.NewRoot(lst)
	h.Stats.Reset()
	h.Collect(0)
	st := &h.Stats
	if st.SweepPasses != 1 || st.PairsCopied != k || st.WordsCopied != 2*k || st.CellsSwept != 2*k {
		t.Fatalf("cdr chain of %d pairs: %d passes, %d pairs, %d words copied, %d cells swept; want 1, %d, %d, %d",
			k, st.SweepPasses, st.PairsCopied, st.WordsCopied, st.CellsSwept, k, 2*k, 2*k)
	}
	p := r.Get()
	for i := k - 1; i >= 0; i-- {
		if got := h.Car(p); got != fx(int64(i)) {
			t.Fatalf("element %d reads %v", k-1-i, got)
		}
		if next := h.Cdr(p); i > 0 && next.Addr() != p.Addr()+2 && next.Addr()%512 != 0 {
			t.Fatalf("element %d's successor at %d, not the next slot after %d", k-1-i, next.Addr(), p.Addr())
		}
		p = h.Cdr(p)
	}
	if p != obj.Nil {
		t.Fatalf("list ends in %v", p)
	}
	h.MustVerify()
	r.Release()
}

// TestSweepPassesCountGuardianResweeps asserts the guardian phase's
// re-sweeps are visible in SweepPasses. The baseline heap (root → a
// pair whose car is a two-pair tconc) needs 2 passes: the first sweeps
// the holder and copies the tconc, whose cdr chain brings its last pair
// along, and the second sweeps those two. Salvaging a dropped guarded
// pair copies it during the guardian phase, whose re-sweep adds a third.
func TestSweepPassesCountGuardianResweeps(t *testing.T) {
	build := func(register bool) uint64 {
		h := heap.NewDefault()
		dummy := h.Cons(obj.False, obj.False)
		tc := h.Cons(dummy, dummy)
		h.NewRoot(h.Cons(tc, obj.Nil))
		if register {
			h.InstallGuardian(h.Cons(fx(1), fx(2)), tc)
		}
		h.Collect(0)
		return h.Stats.SweepPasses
	}
	without := build(false)
	with := build(true)
	if without != 2 {
		t.Fatalf("baseline heap: %d passes, want 2", without)
	}
	if with != 3 {
		t.Fatalf("guardian salvage: %d passes, want 3 (re-sweep visible)", with)
	}
}

// TestCollectionsByGenGrows collects with more than 16 generations —
// the old fixed-size array silently dropped these increments.
func TestCollectionsByGenGrows(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Generations = 24
	h := heap.MustNew(cfg)
	h.Cons(fx(1), obj.Nil)
	h.Collect(18)
	h.Collect(18)
	h.Collect(23)
	st := &h.Stats
	if len(st.CollectionsByGen) != 24 {
		t.Fatalf("CollectionsByGen sized %d, want 24", len(st.CollectionsByGen))
	}
	if st.CollectionsByGen[18] != 2 || st.CollectionsByGen[23] != 1 {
		t.Fatalf("per-gen counts wrong: gen18=%d gen23=%d",
			st.CollectionsByGen[18], st.CollectionsByGen[23])
	}
	if st.Collections != 3 {
		t.Fatalf("Collections = %d, want 3", st.Collections)
	}
}

// TestCollectSteadyStateAllocs asserts that steady-state collections
// perform no Go-level allocation with tracing disabled: the dirty-set
// snapshot, from-space list, and sweep buffers are all reused.
func TestCollectSteadyStateAllocs(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		cfg := heap.DefaultConfig()
		cfg.Workers = 1
		h := heap.MustNew(cfg)
		lst := h.NewRoot(obj.Nil)
		for i := 0; i < 5000; i++ {
			lst.Set(h.Cons(fx(int64(i)), lst.Get()))
		}
		h.Collect(h.MaxGeneration())
		h.Collect(h.MaxGeneration())
		// Old-generation mutations keep scanDirty busy every round. The
		// vector, record and string go through the constructors that
		// fill a whole window, and are copied: the tenured pair holds
		// them.
		steady := func() {
			objs := h.List(h.MakeVector(64, lst.Get()), h.MakeRecord(fx(3), 5), h.MakeString("a short string"))
			h.SetCar(lst.Get(), h.Cons(fx(-1), objs))
			churn(h, 1000)
			h.Collect(0)
		}
		// Survivors land in generation 1, which nothing here collects:
		// every round keeps a few more segments. Stock the free list so
		// they are recycled segments, not table growth.
		churn(h, 100000)
		h.Collect(0)
		for i := 0; i < 3; i++ {
			steady() // warm buffer capacities
		}
		if avg := testing.AllocsPerRun(20, steady); avg > 0 {
			t.Fatalf("steady-state collection allocates %.1f objects/run, want 0", avg)
		}
	})
}

// TestHeaderAccessorsDoNotAllocate holds the accessors the interpreter
// calls per variable reference, per application and per record field
// to zero Go allocations: their kind and bounds checks test inline and
// panic out of line, where h.check boxed three operands a call (4 094
// Go allocations per served request). The index sits above the small
// integers the runtime boxes for free. The failure text is unchanged.
func TestHeaderAccessorsDoNotAllocate(t *testing.T) {
	h := heap.NewDefault()
	sym := h.MakeSymbol(h.MakeString("x"))
	box := h.MakeBox(sym)
	rec := h.MakeRecord(sym, 400)
	vec := h.MakeVector(400, obj.Nil)
	tc := makeTconc(h)
	var sink obj.Value
	for name, fn := range map[string]func(){
		"SymbolValue": func() { sink = h.SymbolValue(sym) },
		"Unbox":       func() { sink = h.Unbox(box) },
		"RecordRef":   func() { sink = h.RecordRef(rec, 300) },
		"VectorSet":   func() { h.VectorSet(vec, 300, sym) },
		// The rest of what the VM calls per instruction and per call.
		"VectorRef":      func() { sink = h.VectorRef(vec, 300) },
		"VectorLength":   func() { sink = fx(int64(h.VectorLength(vec))) },
		"VectorWords":    func() { sink = obj.Value(h.VectorWords(vec, 300)[0]) },
		"ObjectWords":    func() { _, p, _ := h.ObjectWords(box); sink = obj.Value(p[0]) },
		"KindOf":         func() { k, _ := h.KindOf(rec); sink = fx(int64(k)) },
		"RecordRTD":      func() { sink = h.RecordRTD(rec) },
		"SetSymbolValue": func() { h.SetSymbolValue(sym, vec) },
		"Epoch":          func() { sink = fx(int64(h.Epoch())) },
	} {
		if avg := testing.AllocsPerRun(100, fn); avg != 0 {
			t.Errorf("%s allocates %.1f objects a call, want 0", name, avg)
		}
	}
	_ = sink
	// Registration grows the protected list now and then, but boxes
	// nothing per call.
	if avg := testing.AllocsPerRun(1000, func() { h.InstallGuardian(sym, tc) }); avg >= 0.5 {
		t.Errorf("InstallGuardian allocates %.2f objects a call", avg)
	}
	for _, c := range []struct {
		want string
		fn   func()
	}{
		{"heap: symbol-value: not a symbol: ", func() { h.SymbolValue(vec) }},
		{"heap: record-ref: index 400 out of range [0,400)", func() { h.RecordRef(rec, 400) }},
		{"heap: port-field: not a port: ", func() { h.PortField(rec, 0) }},
		{"heap: make-vector: negative length -1", func() { h.MakeVector(-1, obj.Nil) }},
		{"heap: install-guardian: tconc must be a pair: ", func() { h.InstallGuardian(sym, sym) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, c.want) {
					t.Errorf("panic %q, want prefix %q", msg, c.want)
				}
			}()
			c.fn()
		}()
	}
}

// TestCensus checks the residency breakdown against known contents.
func TestCensus(t *testing.T) {
	h := heap.NewDefault()
	lst := h.NewRoot(obj.Nil)
	const pairs = 100
	for i := 0; i < pairs; i++ {
		lst.Set(h.Cons(fx(int64(i)), lst.Get()))
	}
	v := h.NewRoot(h.MakeVector(8, fx(0)))
	s := h.NewRoot(h.MakeString("hello census"))
	w := h.NewRoot(h.WeakCons(lst.Get(), obj.Nil))

	c := h.Census()
	if got := c.Total().Words; got != h.LiveWords() {
		t.Fatalf("census words %d != LiveWords %d", got, h.LiveWords())
	}
	if got := c.Space(seg.SpacePair).Objects; got != pairs {
		t.Fatalf("pair census %d objects, want %d", got, pairs)
	}
	if got := c.Space(seg.SpaceWeak).Objects; got != 1 {
		t.Fatalf("weak census %d objects, want 1", got)
	}
	if got := c.Space(seg.SpaceObj).Objects; got != 1 {
		t.Fatalf("obj census %d objects, want 1 (the vector)", got)
	}
	if got := c.Space(seg.SpaceData).Objects; got != 1 {
		t.Fatalf("data census %d objects, want 1 (the string)", got)
	}
	// Everything is in generation 0 before a collection...
	if got := c.Gen(0).Words; got != h.LiveWords() {
		t.Fatalf("gen0 census %d words, want all %d", got, h.LiveWords())
	}
	// ...and in generation 1 after one.
	h.Collect(0)
	c = h.Census()
	if got := c.Gen(0).Words; got != 0 {
		t.Fatalf("gen0 still holds %d words after collection", got)
	}
	if got := c.Gen(1).Objects; got == 0 {
		t.Fatal("gen1 census empty after collection")
	}
	if !strings.Contains(c.String(), "total:") {
		t.Fatal("census String missing total line")
	}
	_, _, _ = v, s, w
}

// TestStatsStringRendersPhases keeps the report in sync with the new
// counters.
func TestStatsStringRendersPhases(t *testing.T) {
	h := heap.NewDefault()
	h.Cons(fx(1), obj.Nil)
	h.Collect(0)
	out := h.Stats.String()
	for _, want := range []string{"phases", "guardian", "sweep", "old-scan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Stats.String missing %q:\n%s", want, out)
		}
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
