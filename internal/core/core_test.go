package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obj"
)

func fix(n int64) obj.Value { return obj.FromFixnum(n) }

func TestGuardianPaperTranscript(t *testing.T) {
	// > (define G (make-guardian))
	// > (define x (cons 'a 'b))
	// > (G x)
	// > (G)        => #f
	// > (set! x #f)
	// > (G)        => (a . b)   [after collection]
	// > (G)        => #f
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	x := h.NewRoot(h.Cons(fix('a'), fix('b')))
	g.Register(x.Get())
	if _, ok := g.Get(); ok {
		t.Fatal("guardian returned an object while it is still accessible")
	}
	h.Collect(0)
	if _, ok := g.Get(); ok {
		t.Fatal("guardian returned an accessible object after collection")
	}
	x.Release()
	h.Collect(1) // x was promoted to generation 1 by the first collection
	got, ok := g.Get()
	if !ok {
		t.Fatal("guardian did not return the dropped object")
	}
	if h.Car(got).FixnumValue() != 'a' || h.Cdr(got).FixnumValue() != 'b' {
		t.Fatal("returned object corrupted")
	}
	if _, ok := g.Get(); ok {
		t.Fatal("guardian should be empty after retrieval")
	}
}

func TestGuardianDoubleRegistrationTranscript(t *testing.T) {
	// (G x) (G x) → retrievable twice.
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	x := h.NewRoot(h.Cons(fix(1), fix(2)))
	g.Register(x.Get())
	g.Register(x.Get())
	x.Release()
	h.Collect(0)
	a, ok1 := g.Get()
	b, ok2 := g.Get()
	if !ok1 || !ok2 || a != b {
		t.Fatal("double registration must yield the same object twice")
	}
	if _, ok := g.Get(); ok {
		t.Fatal("third retrieval should fail")
	}
}

func TestGuardianTwoGuardiansTranscript(t *testing.T) {
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	g2 := core.NewGuardian(h)
	x := h.NewRoot(h.Cons(fix(1), fix(2)))
	g.Register(x.Get())
	g2.Register(x.Get())
	x.Release()
	h.Collect(0)
	a, ok1 := g.Get()
	b, ok2 := g2.Get()
	if !ok1 || !ok2 || a != b {
		t.Fatal("object must be retrievable from both guardians")
	}
}

func TestGuardianRegisteredWithGuardianTranscript(t *testing.T) {
	// (G H) (H x); drop H and x; ((G)) should eventually yield x.
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	hg := core.NewGuardian(h)
	x := h.NewRoot(h.Cons(fix('a'), fix('b')))
	g.Register(hg.Tconc())
	hg.Register(x.Get())
	x.Release()
	hg.Release()
	h.Collect(0)
	tc, ok := g.Get()
	if !ok {
		t.Fatal("G did not return H")
	}
	inner, ok := core.TconcGet(h, tc)
	if !ok {
		t.Fatal("H did not contain x")
	}
	if h.Car(inner).FixnumValue() != 'a' {
		t.Fatal("x corrupted")
	}
}

func TestGuardianReleaseCancelsFinalization(t *testing.T) {
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	g.Register(h.Cons(fix(1), obj.Nil))
	g.Release()
	h.Collect(0)
	if h.Stats.GuardianEntriesSalvaged != 0 {
		t.Fatal("released guardian must not salvage anything")
	}
	if h.ProtectedCount() != 0 {
		t.Fatal("entries of released guardian must be discarded")
	}
}

func TestGuardianResurrectionAndReregistration(t *testing.T) {
	// A retrieved object has no special status: it can be let loose
	// into the system again or re-registered for finalization (§1/§3).
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	g.Register(h.Cons(fix(5), obj.Nil))
	h.Collect(0)
	got, ok := g.Get()
	if !ok {
		t.Fatal("object not salvaged")
	}
	// Resurrect: root it, collect, check it stays alive.
	r := h.NewRoot(got)
	h.Collect(h.MaxGeneration())
	if h.Car(r.Get()).FixnumValue() != 5 {
		t.Fatal("resurrected object lost")
	}
	// Re-register and drop again.
	g.Register(r.Get())
	r.Release()
	h.Collect(h.MaxGeneration())
	if got2, ok := g.Get(); !ok || h.Car(got2).FixnumValue() != 5 {
		t.Fatal("re-registered object not salvaged a second time")
	}
}

func TestGuardianImmediateNeverReturned(t *testing.T) {
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	g.Register(fix(42))
	for i := 0; i < 3; i++ {
		h.Collect(h.MaxGeneration())
	}
	if _, ok := g.Get(); ok {
		t.Fatal("immediates are always accessible; must never be returned")
	}
}

func TestGuardianPendingCount(t *testing.T) {
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	for i := 0; i < 5; i++ {
		g.Register(h.Cons(fix(int64(i)), obj.Nil))
	}
	h.Collect(0)
	if n := g.Pending(); n != 5 {
		t.Fatalf("Pending = %d, want 5", n)
	}
	g.Get()
	if n := g.Pending(); n != 4 {
		t.Fatalf("Pending = %d after one Get, want 4", n)
	}
}

func TestTconcFIFOOrder(t *testing.T) {
	h := heap.NewDefault()
	tc := h.NewRoot(core.NewTconc(h))
	for i := int64(0); i < 10; i++ {
		core.TconcPut(h, tc.Get(), fix(i))
	}
	for i := int64(0); i < 10; i++ {
		v, ok := core.TconcGet(h, tc.Get())
		if !ok || v.FixnumValue() != i {
			t.Fatalf("dequeue %d: got %v ok=%v", i, v, ok)
		}
	}
	if !core.TconcEmpty(h, tc.Get()) {
		t.Fatal("tconc should be empty")
	}
}

func TestTconcSurvivesCollections(t *testing.T) {
	h := heap.NewDefault()
	tc := h.NewRoot(core.NewTconc(h))
	for i := int64(0); i < 100; i++ {
		core.TconcPut(h, tc.Get(), fix(i))
		if i%10 == 0 {
			h.Collect(int(i/10) % 4)
		}
	}
	for i := int64(0); i < 100; i++ {
		v, ok := core.TconcGet(h, tc.Get())
		if !ok || v.FixnumValue() != i {
			t.Fatalf("dequeue %d after collections: got %v ok=%v", i, v, ok)
		}
	}
}

// TestTconcInterleavings exhaustively interleaves the collector-side
// append (Figure 3) with a step-decomposed mutator dequeue (Figure 4),
// checking that every interleaving preserves queue integrity — the
// paper's claim that neither side needs a critical section. The
// mutator's dequeue is split at each of its reads/writes; an append is
// injected at every split point.
func TestTconcInterleavings(t *testing.T) {
	// Steps of the mutator protocol, operating on captured state.
	type state struct {
		x, y obj.Value
	}
	steps := []func(h *heap.Heap, tc obj.Value, s *state){
		func(h *heap.Heap, tc obj.Value, s *state) { s.x = h.Car(tc) },
		func(h *heap.Heap, tc obj.Value, s *state) { s.y = h.Car(s.x) },
		func(h *heap.Heap, tc obj.Value, s *state) { h.SetCar(tc, h.Cdr(s.x)) },
		func(h *heap.Heap, tc obj.Value, s *state) { h.SetCar(s.x, obj.False) },
		func(h *heap.Heap, tc obj.Value, s *state) { h.SetCdr(s.x, obj.False) },
	}
	for inject := 0; inject <= len(steps); inject++ {
		h := heap.NewDefault()
		tc := core.NewTconc(h)
		core.TconcPut(h, tc, fix(100)) // ensure non-empty before dequeue
		var s state
		var got []int64
		for i := 0; i <= len(steps); i++ {
			if i == inject {
				// "Collector" appends mid-dequeue.
				core.TconcPut(h, tc, fix(200))
			}
			if i < len(steps) {
				steps[i](h, tc, &s)
			}
		}
		got = append(got, s.y.FixnumValue())
		for {
			v, ok := core.TconcGet(h, tc)
			if !ok {
				break
			}
			got = append(got, v.FixnumValue())
		}
		if len(got) != 2 || got[0] != 100 || got[1] != 200 {
			t.Fatalf("inject@%d: got %v, want [100 200]", inject, got)
		}
	}
}

// TestTconcAppendVisibility checks the key ordering property of Figure
// 3: until the header's cdr is updated (the final step), the mutator
// sees the queue unchanged.
func TestTconcAppendVisibility(t *testing.T) {
	h := heap.NewDefault()
	tc := core.NewTconc(h)
	if !core.TconcEmpty(h, tc) {
		t.Fatal("fresh tconc not empty")
	}
	// Perform the first two writes of the append protocol by hand.
	last := h.Cdr(tc)
	newLast := h.Cons(obj.False, obj.False)
	h.SetCar(last, fix(7))
	h.SetCdr(last, newLast)
	// The element is not yet visible: header cdr not updated.
	if !core.TconcEmpty(h, tc) {
		t.Fatal("partially appended element became visible")
	}
	h.SetCdr(tc, newLast) // final update
	v, ok := core.TconcGet(h, tc)
	if !ok || v.FixnumValue() != 7 {
		t.Fatal("element not visible after final update")
	}
}

func TestTransportGuardianReportsMoves(t *testing.T) {
	h := heap.NewDefault()
	tg := core.NewTransportGuardian(h)
	x := h.NewRoot(h.Cons(fix(1), obj.Nil))
	tg.Register(x.Get())
	h.Collect(0) // x moves to generation 1; marker was collected
	moved, ok := tg.Next()
	if !ok {
		t.Fatal("transport guardian missed a moved object")
	}
	if moved != x.Get() {
		t.Fatal("transport guardian returned wrong object")
	}
	if _, ok := tg.Next(); ok {
		t.Fatal("no further moves expected")
	}
}

func TestTransportGuardianAgesWithObject(t *testing.T) {
	// After the marker has aged alongside a tenured object, young
	// collections stop reporting the object — the generation-friendly
	// behaviour the paper designs for.
	h := heap.NewDefault()
	tg := core.NewTransportGuardian(h)
	x := h.NewRoot(h.Cons(fix(1), obj.Nil))
	tg.Register(x.Get())
	h.Collect(0)
	if _, ok := tg.Next(); !ok { // drain and re-register (marker -> gen 1)
		t.Fatal("expected a move report")
	}
	h.Collect(0) // x (gen 1) does not move; marker (gen 1) not collected
	if _, ok := tg.Next(); ok {
		t.Fatal("young collection must not report a tenured, unmoved object")
	}
	h.Collect(1) // now x moves to gen 2
	if _, ok := tg.Next(); !ok {
		t.Fatal("old-generation collection should report the move")
	}
}

func TestTransportGuardianDropsDeadObjects(t *testing.T) {
	h := heap.NewDefault()
	tg := core.NewTransportGuardian(h)
	tg.Register(h.Cons(fix(1), obj.Nil)) // immediately dropped
	h.Collect(0)
	if _, ok := tg.Next(); ok {
		t.Fatal("transport guardian must not hold dead objects alive")
	}
}

func fixnumCarHash(h *heap.Heap, key obj.Value) uint64 {
	return uint64(h.Car(key).FixnumValue())
}

func TestGuardedTableBasics(t *testing.T) {
	h := heap.NewDefault()
	tbl := core.NewGuardedTable(h, 8, fixnumCarHash)
	k := h.NewRoot(h.Cons(fix(3), obj.Nil))
	got := tbl.Access(k.Get(), fix(30))
	if got.FixnumValue() != 30 {
		t.Fatal("insert should return the provided value")
	}
	got = tbl.Access(k.Get(), fix(99))
	if got.FixnumValue() != 30 {
		t.Fatal("existing key must return existing value (Figure 1)")
	}
	if v, ok := tbl.Lookup(k.Get()); !ok || v.FixnumValue() != 30 {
		t.Fatal("lookup wrong")
	}
	if tbl.Len() != 1 {
		t.Fatal("length wrong")
	}
}

func TestGuardedTableRemovesDroppedKeys(t *testing.T) {
	h := heap.NewDefault()
	tbl := core.NewGuardedTable(h, 16, fixnumCarHash)
	keep := make([]*heap.Root, 0)
	for i := int64(0); i < 40; i++ {
		k := h.Cons(fix(i), obj.Nil)
		if i%2 == 0 {
			keep = append(keep, h.NewRoot(k))
		}
		tbl.Access(k, fix(i*10))
	}
	if tbl.Len() != 40 {
		t.Fatalf("Len = %d before collection, want 40", tbl.Len())
	}
	h.Collect(0)
	h.Collect(1)
	if got := tbl.Len(); got != 20 {
		t.Fatalf("Len = %d after dropping half the keys, want 20", got)
	}
	// Kept keys still resolve.
	for i, r := range keep {
		v, ok := tbl.Lookup(r.Get())
		if !ok || v.FixnumValue() != int64(i*2*10) {
			t.Fatalf("kept key %d lost or wrong: %v %v", i, v, ok)
		}
	}
	if tbl.Removed != 20 {
		t.Fatalf("Removed = %d, want 20", tbl.Removed)
	}
}

func TestGuardedTableDoesNotRetainKeys(t *testing.T) {
	// The weak entry plus guardian must not keep a dropped key's
	// storage alive after cleanup runs.
	h := heap.NewDefault()
	tbl := core.NewGuardedTable(h, 8, fixnumCarHash)
	tbl.Access(h.Cons(fix(1), obj.Nil), fix(10))
	h.Collect(0)
	if tbl.Len() != 0 {
		t.Fatal("dropped key not removed")
	}
	h.Stats.Reset()
	h.Collect(1)
	if h.Stats.GuardianEntriesSalvaged != 0 {
		t.Fatal("stale guardian entries remain after cleanup")
	}
}

func TestUnguardedTableRetainsEverything(t *testing.T) {
	h := heap.NewDefault()
	tbl := core.NewUnguardedTable(h, 16, fixnumCarHash)
	for i := int64(0); i < 40; i++ {
		tbl.Access(h.Cons(fix(i), obj.Nil), fix(i))
	}
	h.Collect(0)
	h.Collect(1)
	if tbl.Len() != 40 {
		t.Fatalf("unguarded table should keep all %d entries, has %d", 40, tbl.Len())
	}
}

func TestEqTableModes(t *testing.T) {
	for _, mode := range []core.RehashMode{core.RehashAll, core.RehashTransport} {
		h := heap.NewDefault()
		tbl := core.NewEqTable(h, 32, mode)
		var keys []*heap.Root
		for i := int64(0); i < 50; i++ {
			k := h.NewRoot(h.Cons(fix(i), obj.Nil))
			keys = append(keys, k)
			tbl.Put(k.Get(), fix(i*2))
		}
		// Collections move the keys; lookups must keep working.
		h.Collect(0)
		for i, k := range keys {
			v, ok := tbl.Get(k.Get())
			if !ok || v.FixnumValue() != int64(i*2) {
				t.Fatalf("mode %v: key %d lost after collection", mode, i)
			}
		}
		h.Collect(1)
		h.Collect(2)
		for i, k := range keys {
			if v, ok := tbl.Get(k.Get()); !ok || v.FixnumValue() != int64(i*2) {
				t.Fatalf("mode %v: key %d lost after deep collections", mode, i)
			}
		}
		// Update and delete.
		tbl.Put(keys[0].Get(), fix(999))
		if v, _ := tbl.Get(keys[0].Get()); v.FixnumValue() != 999 {
			t.Fatalf("mode %v: update failed", mode)
		}
		if !tbl.Delete(keys[1].Get()) {
			t.Fatalf("mode %v: delete failed", mode)
		}
		if _, ok := tbl.Get(keys[1].Get()); ok {
			t.Fatalf("mode %v: deleted key still present", mode)
		}
		if tbl.Len() != 49 {
			t.Fatalf("mode %v: Len = %d, want 49", mode, tbl.Len())
		}
	}
}

func TestEqTableTransportRehashesLessForTenuredKeys(t *testing.T) {
	// E4's core claim at the counter level: with tenured keys, young
	// collections cause zero transport-mode rehashing but full
	// rehash-all work.
	run := func(mode core.RehashMode) uint64 {
		h := heap.NewDefault()
		tbl := core.NewEqTable(h, 64, mode)
		var keys []*heap.Root
		for i := int64(0); i < 100; i++ {
			k := h.NewRoot(h.Cons(fix(i), obj.Nil))
			keys = append(keys, k)
			tbl.Put(k.Get(), fix(i))
		}
		// Tenure keys (and markers) to generation 3.
		for i := 0; i < 4; i++ {
			h.Collect(h.MaxGeneration())
			tbl.Get(keys[0].Get()) // drain/fix after each collection
		}
		tbl.KeysRehashed = 0
		// Young collections: keys do not move.
		for i := 0; i < 10; i++ {
			h.Collect(0)
			tbl.Get(keys[0].Get())
		}
		return tbl.KeysRehashed
	}
	naive := run(core.RehashAll)
	transport := run(core.RehashTransport)
	if transport != 0 {
		t.Fatalf("transport mode rehashed %d keys at young collections, want 0", transport)
	}
	if naive != 100*10 {
		t.Fatalf("rehash-all mode rehashed %d keys, want 1000", naive)
	}
}

func TestGuardedTableGrowth(t *testing.T) {
	h := heap.NewDefault()
	tbl := core.NewGuardedTable(h, 2, fixnumCarHash) // tiny: forces many doublings
	const K = 2000
	keys := make([]*heap.Root, K)
	for i := int64(0); i < K; i++ {
		k := h.Cons(fix(i), obj.Nil)
		keys[i] = h.NewRoot(k)
		tbl.Access(k, fix(i*3))
	}
	if tbl.Len() != K {
		t.Fatalf("Len = %d, want %d", tbl.Len(), K)
	}
	for i := int64(0); i < K; i++ {
		v, ok := tbl.Lookup(keys[i].Get())
		if !ok || v.FixnumValue() != i*3 {
			t.Fatalf("key %d lost after growth", i)
		}
	}
	// Growth must not disturb guardian-driven cleanup.
	for i := 0; i < K/2; i++ {
		keys[i].Release()
	}
	h.Collect(0)
	h.Collect(1)
	if got := tbl.Len(); got != K/2 {
		t.Fatalf("Len after drop = %d, want %d", got, K/2)
	}
	for i := int64(K / 2); i < K; i++ {
		if _, ok := tbl.Lookup(keys[i].Get()); !ok {
			t.Fatalf("surviving key %d lost after cleanup in grown table", i)
		}
	}
	h.MustVerify()
}

func TestGuardedTableGrowthUnderCollections(t *testing.T) {
	h := heap.NewDefault()
	tbl := core.NewGuardedTable(h, 2, fixnumCarHash)
	var keys []*heap.Root
	for i := int64(0); i < 500; i++ {
		k := h.Cons(fix(i), obj.Nil)
		keys = append(keys, h.NewRoot(k))
		tbl.Access(k, fix(i))
		if i%50 == 49 {
			h.Collect(int(i/50) % 4)
		}
	}
	for i, r := range keys {
		if v, ok := tbl.Lookup(r.Get()); !ok || v.FixnumValue() != int64(i) {
			t.Fatalf("key %d lost", i)
		}
	}
	h.MustVerify()
}

func TestGuardedTableForEach(t *testing.T) {
	h := heap.NewDefault()
	tbl := core.NewGuardedTable(h, 8, fixnumCarHash)
	var keys []*heap.Root
	for i := int64(0); i < 10; i++ {
		k := h.Cons(fix(i), obj.Nil)
		keys = append(keys, h.NewRoot(k))
		tbl.Access(k, fix(i*2))
	}
	sum := int64(0)
	tbl.ForEach(func(k, v obj.Value) { sum += v.FixnumValue() })
	if sum != 90 {
		t.Fatalf("ForEach sum = %d, want 90", sum)
	}
	for i := 0; i < 5; i++ {
		keys[i].Release()
	}
	h.Collect(h.MaxGeneration())
	count := 0
	tbl.ForEach(func(k, v obj.Value) { count++ })
	if count != 5 {
		t.Fatalf("ForEach visited %d entries after drop, want 5", count)
	}
}

func TestGuardedTableKeyInValueLimitation(t *testing.T) {
	// The classic limitation that ephemerons (introduced after this
	// paper) solve: when a table VALUE references its own KEY, the key
	// is reachable through the table itself — table -> bucket -> entry
	// cdr (strong) -> key — so the collector can never prove it
	// inaccessible and the entry is retained even with no outside
	// references. Figure 1's guarded table shares this behaviour with
	// every weak-key table of its era; this test documents it.
	h := heap.NewDefault()
	tbl := core.NewGuardedTable(h, 8, fixnumCarHash)
	key := h.Cons(fix(1), obj.Nil)
	value := h.Cons(fix(100), key) // value -> key cycle through the table
	tbl.Access(key, value)
	// No outside references to key or value remain.
	key, value = obj.False, obj.False
	h.Collect(h.MaxGeneration())
	h.Collect(h.MaxGeneration())
	if got := tbl.Len(); got != 1 {
		t.Fatalf("key-in-value entry count = %d; the documented retention behaviour changed", got)
	}
	// A plain (non-self-referential) entry in the same table does get
	// reclaimed, confirming the retention above is the key-in-value
	// case specifically.
	tbl.Access(h.Cons(fix(2), obj.Nil), fix(0))
	h.Collect(h.MaxGeneration())
	h.Collect(h.MaxGeneration())
	if got := tbl.Len(); got != 1 {
		t.Fatalf("plain entry not reclaimed: %d", got)
	}
}

func TestHeapOutOfMemoryLimit(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.MaxSegments = 8
	h := heap.MustNew(cfg)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("exceeding MaxSegments did not panic")
		}
	}()
	r := h.NewRoot(obj.Nil)
	for i := 0; ; i++ {
		r.Set(h.Cons(fix(int64(i)), r.Get())) // all live: no collection can help
	}
}
