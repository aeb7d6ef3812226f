package heap_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
)

// Tests for concurrent-mutator mode: per-goroutine TLAB allocation,
// the stop-the-world safepoint handshake, the thread-safe remembered
// set, and the interaction of mutator reservations with bounded heaps.
//
// Discipline for code in these tests: in concurrent-mutator mode,
// every Mutator allocation and Safepoint call is a potential
// collection point (another goroutine's collection can park us), so
// heap values must not be held in plain Go locals across them — only
// in Roots, reloaded afterwards. The constructors pin their own
// arguments (Mutator.tmp), so m.Cons(r.Get(), s.Get()) is safe, and a
// constructor's return value is safe to use until the owner's next
// safepoint.

// stressMutator is one goroutine of the concurrent stress workload: a
// registered mutator applying a seeded random mix of allocation,
// mutation, guardian registration, safepoint polls, and collections.
func stressMutator(h *heap.Heap, tconc *heap.Root, iters int, seed int64) {
	m := h.RegisterMutator()
	defer m.Unregister()
	rng := rand.New(rand.NewSource(seed))
	const K = 8 // live roots per goroutine
	roots := make([]*heap.Root, 0, K)
	defer func() {
		for _, r := range roots {
			r.Release()
		}
	}()
	rv := func() obj.Value {
		if len(roots) == 0 || rng.Intn(4) == 0 {
			return obj.FromFixnum(int64(rng.Intn(1000)))
		}
		return roots[rng.Intn(len(roots))].Get()
	}
	keep := func(v obj.Value) {
		if len(roots) < K {
			roots = append(roots, h.NewRoot(v))
		} else {
			roots[rng.Intn(K)].Set(v)
		}
	}
	for i := 0; i < iters; i++ {
		switch op := rng.Intn(100); {
		case op < 50:
			keep(m.Cons(rv(), rv()))
		case op < 60:
			keep(m.WeakCons(rv(), rv()))
		case op < 68:
			keep(m.MakeVector(1+rng.Intn(8), rv()))
		case op < 72:
			keep(m.MakeString(fmt.Sprintf("s%d", rng.Intn(100))))
		case op < 82: // mutate one of our own pairs
			if len(roots) > 0 {
				p := roots[rng.Intn(len(roots))].Get()
				if p.IsPair() && !h.IsWeakPair(p) {
					if rng.Intn(2) == 0 {
						h.SetCar(p, rv())
					} else {
						h.SetCdr(p, rv())
					}
				}
			}
		case op < 86: // guardian registration from a mutator goroutine
			if v := rv(); v.IsPointer() {
				h.InstallGuardian(v, tconc.Get())
			}
		case op < 92:
			m.Safepoint()
		case op < 98:
			m.Checkpoint()
		default:
			if rng.Intn(8) == 0 {
				m.Collect(rng.Intn(h.MaxGeneration() + 1))
			} else {
				m.CollectAuto()
			}
		}
	}
}

// TestMutatorStress runs N concurrently-allocating mutator goroutines
// and verifies the heap between phases. Run under -race this is the
// data-race gate for the TLAB slow path, the safepoint handshake, and
// the shard-locked remembered set. It runs at both Config.Workers
// values Validate accepts, 1 and unset; each is the one copier.
func TestMutatorStress(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := heap.DefaultConfig()
			cfg.Workers = workers
			cfg.Policy = heap.RadixPolicy{Trigger: 1 << 15}
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
					stressMutator(h, tc, iters, int64(id)*7919+int64(workers)+1)
				}(i)
			}
			wg.Wait()
			// All mutators have unregistered: the heap is back in legacy
			// mode and must be sound.
			h.MustVerify()
			rep := h.Collect(h.MaxGeneration())
			if rep.MutatorsSuspended != 0 {
				t.Fatalf("MutatorsSuspended = %d after all mutators unregistered", rep.MutatorsSuspended)
			}
			h.MustVerify()
			tc.Release()
		})
	}
}

// TestMutatorHandshake pins the handshake observability contract: a
// collection initiated from a non-mutator goroutine suspends the
// allocating mutator, reports it in MutatorsSuspended, measures the
// coordinator's wait, and surfaces both in the trace schema.
func TestMutatorHandshake(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	h := heap.MustNew(cfg)
	h.EnableTrace(4)
	var stop atomic.Bool
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m := h.RegisterMutator()
		defer m.Unregister()
		r := h.NewRoot(obj.Nil)
		defer r.Release()
		close(started)
		for i := 0; !stop.Load(); i++ {
			r.Set(m.Cons(obj.FromFixnum(int64(i)), obj.Nil))
		}
	}()
	<-started
	sawWait := false
	for i := 0; i < 10; i++ {
		rep := h.Collect(0)
		if rep.MutatorsSuspended != 1 {
			t.Fatalf("collection %d: MutatorsSuspended = %d, want 1", i, rep.MutatorsSuspended)
		}
		if rep.SafepointWait > 0 {
			sawWait = true
		}
	}
	if !sawWait {
		t.Fatal("no collection measured a positive safepoint wait")
	}
	evs := h.TraceEvents()
	if len(evs) == 0 || evs[len(evs)-1].MutatorsSuspended != 1 {
		t.Fatalf("trace event missing mutators_suspended: %+v", evs)
	}
	stop.Store(true)
	<-done
	h.MustVerify()
	if rep := h.Collect(h.MaxGeneration()); rep.MutatorsSuspended != 0 || rep.SafepointWait != 0 {
		t.Fatalf("legacy-mode report carries handshake figures: %d / %v",
			rep.MutatorsSuspended, rep.SafepointWait)
	}
}

// TestMutatorIdleCollect drives two handles from one goroutine using
// the Idle/Active standing safepoint, which is what makes
// deterministic multi-mutator schedules possible at all.
func TestMutatorIdleCollect(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	h := heap.MustNew(cfg)
	m1 := h.RegisterMutator()
	m2 := h.RegisterMutator()

	r := h.NewRoot(m1.Cons(obj.FromFixnum(1), obj.Nil))
	m2.Idle() // m2 sits at a standing safepoint
	rep := m1.Collect(0)
	if rep.MutatorsSuspended != 1 {
		t.Fatalf("MutatorsSuspended = %d with one idle peer, want 1", rep.MutatorsSuspended)
	}
	if h.Car(r.Get()).FixnumValue() != 1 {
		t.Fatal("rooted pair lost across mutator-coordinated collection")
	}
	m2.Active()

	// Non-mutator Collect with every handle idle.
	m1.Idle()
	m2.Idle()
	rep = h.Collect(0)
	if rep.MutatorsSuspended != 2 {
		t.Fatalf("MutatorsSuspended = %d with both idle, want 2", rep.MutatorsSuspended)
	}
	h.MustVerify()
	m1.Active()
	m2.Active()

	// Unregistering while idle is allowed (the owner makes the call).
	m2.Idle()
	m2.Unregister()
	m1.Unregister()
	r.Release()
	h.MustVerify()
}

// TestMutatorTLABEdges exercises the TLAB boundary cases from a single
// registered mutator: exhaustion mid-object via sizes that do not
// divide the segment, multi-segment large objects, the string/byte
// constructors, and the generation-0 trigger firing from the TLAB
// refill path.
func TestMutatorTLABEdges(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	h := heap.MustNew(cfg)
	m := h.RegisterMutator()

	ring := h.NewRoot(obj.Nil)
	// Pairs spanning several TLAB segments.
	for i := 0; i < 2000; i++ {
		ring.Set(m.Cons(obj.FromFixnum(int64(i)), ring.Get()))
	}
	// Vectors whose sizes leave awkward TLAB remainders.
	for _, n := range []int{2, 3, 5, 17, 101, 255, 256, 510, 511} {
		for i := 0; i < 12; i++ {
			ring.Set(m.Cons(m.MakeVector(n, obj.FromFixnum(int64(n))), ring.Get()))
		}
	}
	// Large objects: wider than one segment, straight to the run path.
	ring.Set(m.Cons(m.MakeVector(1500, obj.FromFixnum(7)), ring.Get()))
	ring.Set(m.Cons(m.MakeString(strings.Repeat("x", 4096)), ring.Get()))
	ring.Set(m.Cons(m.MakeBytevector(9000), ring.Get()))
	ring.Set(m.Cons(m.MakeFlonum(3.25), ring.Get()))
	ring.Set(m.Cons(m.MakeBox(ring.Get()), ring.Get()))
	h.MustVerify()

	rep := m.Collect(0)
	if rep.MutatorsSuspended != 0 {
		t.Fatalf("self-coordinated collection suspended %d mutators", rep.MutatorsSuspended)
	}
	h.MustVerify()
	m.Collect(h.MaxGeneration())
	h.MustVerify()

	// Check the structure survived.
	v := ring.Get()
	n := 0
	for v.IsPair() {
		v = h.Cdr(v)
		n++
	}
	if n < 2000 {
		t.Fatalf("ring lost pairs: %d", n)
	}

	m.Unregister()
	ring.Release()
	h.MustVerify()

	// The generation-0 trigger fires from the TLAB segment-claim path
	// (each claimed segment pre-charges seg.Words against the trigger).
	cfg2 := heap.DefaultConfig()
	cfg2.Policy = heap.RadixPolicy{Trigger: 1 << 12}
	h2 := heap.MustNew(cfg2)
	m2 := h2.RegisterMutator()
	r2 := h2.NewRoot(obj.Nil)
	for i := 0; i < 20000; i++ {
		r2.Set(m2.Cons(obj.FromFixnum(int64(i)), obj.Nil))
		if i&255 == 255 {
			m2.Checkpoint()
		}
	}
	if h2.Stats.Collections == 0 {
		t.Fatal("TLAB allocation never fired the gen-0 trigger")
	}
	m2.Unregister()
	r2.Release()
	h2.MustVerify()
}

// TestMutatorDirectHeapAllocPanics pins the mode exclusivity rule:
// while any Mutator is registered, allocating through the Heap
// directly is a programmer error.
func TestMutatorDirectHeapAllocPanics(t *testing.T) {
	h := heap.NewDefault()
	m := h.RegisterMutator()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("direct Heap.Cons with a registered mutator did not panic")
			}
		}()
		h.Cons(obj.False, obj.False)
	}()
	m.Unregister()
	// Legacy mode resumes when the last mutator unregisters.
	h.Cons(obj.False, obj.False)
}

// TestMutatorChurn races register/allocate/unregister cycles on four
// goroutines against collections driven from a non-mutator goroutine:
// the handshake must recount its quorum as mutators come and go.
func TestMutatorChurn(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	h := heap.MustNew(cfg)
	var wg sync.WaitGroup
	cycles := 30
	if testing.Short() {
		cycles = 8
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				m := h.RegisterMutator()
				r := h.NewRoot(obj.Nil)
				for i := 0; i < 300; i++ {
					r.Set(m.Cons(obj.FromFixnum(int64(i)), r.Get()))
				}
				r.Release()
				m.Unregister()
			}
		}(int64(g))
	}
	chDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(chDone)
	}()
	rng := rand.New(rand.NewSource(99))
	for done := false; !done; {
		select {
		case <-chDone:
			done = true
		default:
			h.Collect(rng.Intn(2))
			// Yield between collections: back-to-back rounds would
			// starve the RegisterMutator waiters (the collecting-clear
			// window is otherwise nearly zero).
			time.Sleep(200 * time.Microsecond)
		}
	}
	h.MustVerify()
	h.Collect(h.MaxGeneration())
	h.MustVerify()
}

// --- Deterministic multi-mutator lockstep oracle ---------------------

// mutOracleSide is one side of the multi-mutator lockstep pair: a heap
// driven either through the legacy single-mutator interface or through
// a set of registered Mutator handles used round-robin. All handles
// are driven from the test goroutine; collections on the mutator side
// idle every handle first (the standing-safepoint schedule).
type mutOracleSide struct {
	h     *heap.Heap
	muts  []*heap.Mutator
	roots []*heap.Root
	tconc *heap.Root
	n     int
}

func newMutOracleSide(handles int, mut func(*heap.Config)) *mutOracleSide {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	if mut != nil {
		mut(&cfg)
	}
	h := heap.MustNew(cfg)
	o := &mutOracleSide{h: h, tconc: h.NewRoot(makeTconc(h))}
	for i := 0; i < handles; i++ {
		o.muts = append(o.muts, h.RegisterMutator())
	}
	return o
}

func (o *mutOracleSide) handle() *heap.Mutator {
	if len(o.muts) == 0 {
		return nil
	}
	return o.muts[o.n%len(o.muts)]
}

func (o *mutOracleSide) cons(car, cdr obj.Value) obj.Value {
	if m := o.handle(); m != nil {
		return m.Cons(car, cdr)
	}
	return o.h.Cons(car, cdr)
}

func (o *mutOracleSide) weakCons(car, cdr obj.Value) obj.Value {
	if m := o.handle(); m != nil {
		return m.WeakCons(car, cdr)
	}
	return o.h.WeakCons(car, cdr)
}

func (o *mutOracleSide) makeVector(n int, fill obj.Value) obj.Value {
	if m := o.handle(); m != nil {
		return m.MakeVector(n, fill)
	}
	return o.h.MakeVector(n, fill)
}

func (o *mutOracleSide) makeString(s string) obj.Value {
	if m := o.handle(); m != nil {
		return m.MakeString(s)
	}
	return o.h.MakeString(s)
}

func (o *mutOracleSide) collect(g int) {
	for _, m := range o.muts {
		m.Idle()
	}
	o.h.Collect(g)
	for _, m := range o.muts {
		m.Active()
	}
}

func (o *mutOracleSide) close() {
	for _, m := range o.muts {
		m.Unregister()
	}
	o.muts = nil
}

func (o *mutOracleSide) randomValue(rng *rand.Rand) obj.Value {
	switch rng.Intn(4) {
	case 0:
		return obj.FromFixnum(int64(rng.Intn(1000)))
	case 1:
		return obj.Nil
	default:
		if len(o.roots) == 0 {
			return obj.False
		}
		return o.roots[rng.Intn(len(o.roots))].Get()
	}
}

// mutOracleStep applies one random op, reporting whether it collected.
// Both sides run this exact code with identical rng streams, so they
// stay isomorphic as long as the TLAB allocator and the legacy
// allocator build the same object graphs.
func mutOracleStep(o *mutOracleSide, rng *rand.Rand) bool {
	h := o.h
	o.n++
	switch op := rng.Intn(100); {
	case op < 35:
		o.roots = append(o.roots, h.NewRoot(o.cons(o.randomValue(rng), o.randomValue(rng))))
	case op < 45:
		o.roots = append(o.roots, h.NewRoot(o.weakCons(o.randomValue(rng), o.randomValue(rng))))
	case op < 50:
		v := o.makeVector(1+rng.Intn(6), obj.Nil)
		for i := 0; i < h.VectorLength(v); i++ {
			h.VectorSet(v, i, o.randomValue(rng))
		}
		o.roots = append(o.roots, h.NewRoot(v))
	case op < 53:
		o.roots = append(o.roots, h.NewRoot(o.makeString(fmt.Sprintf("s%d", rng.Intn(100)))))
	case op < 68:
		if len(o.roots) > 0 {
			v := o.roots[rng.Intn(len(o.roots))].Get()
			if v.IsPair() && !h.IsWeakPair(v) {
				nv := o.randomValue(rng)
				if rng.Intn(2) == 0 {
					h.SetCar(v, nv)
				} else {
					h.SetCdr(v, nv)
				}
			} else {
				rng.Intn(2) // keep streams aligned
				o.randomValue(rng)
			}
		}
	case op < 78:
		if len(o.roots) > 4 {
			i := rng.Intn(len(o.roots))
			o.roots[i].Release()
			o.roots[i] = o.roots[len(o.roots)-1]
			o.roots = o.roots[:len(o.roots)-1]
		}
	case op < 85:
		if len(o.roots) > 0 {
			v := o.roots[rng.Intn(len(o.roots))].Get()
			if v.IsPointer() {
				h.InstallGuardian(v, o.tconc.Get())
			}
		}
	case op < 90:
		o.roots = append(o.roots, h.NewRoot(o.cons(obj.FromFixnum(int64(rng.Intn(50))), obj.Nil)))
		v := o.roots[len(o.roots)-1].Get()
		h.InstallGuardian(v, o.tconc.Get()) // rooted now, salvage fodder later
	default:
		o.collect(rng.Intn(h.MaxGeneration() + 1))
		return true
	}
	return false
}

func (o *mutOracleSide) compare(other *mutOracleSide) error {
	if len(o.roots) != len(other.roots) {
		return fmt.Errorf("root counts differ: %d vs %d", len(o.roots), len(other.roots))
	}
	for i := range o.roots {
		if err := structEqual(o.h, other.h, o.roots[i].Get(), other.roots[i].Get()); err != nil {
			return fmt.Errorf("root %d: %w", i, err)
		}
	}
	if err := structEqual(o.h, other.h, o.tconc.Get(), other.tconc.Get()); err != nil {
		return fmt.Errorf("guardian tconc: %w", err)
	}
	if o.h.DirtyCount() != other.h.DirtyCount() {
		return fmt.Errorf("dirty counts differ: %d vs %d", o.h.DirtyCount(), other.h.DirtyCount())
	}
	sa, sb := &o.h.Stats, &other.h.Stats
	if sa.WeakPointersBroken != sb.WeakPointersBroken {
		return fmt.Errorf("weak broken differ: %d vs %d", sa.WeakPointersBroken, sb.WeakPointersBroken)
	}
	if sa.GuardianEntriesSalvaged != sb.GuardianEntriesSalvaged {
		return fmt.Errorf("salvaged differ: %d vs %d", sa.GuardianEntriesSalvaged, sb.GuardianEntriesSalvaged)
	}
	return nil
}

// TestMutatorOracle steps a legacy heap running the map-based
// remembered-set oracle and a four-handle concurrent-mutator heap (the
// sharded set) through an identical seeded workload. After every
// collection the object graphs must be isomorphic and the deduplicated
// dirty counts and guardian/weak outcomes identical — the
// remembered-set map-oracle gate for the multi-mutator allocation and
// barrier paths.
func TestMutatorOracle(t *testing.T) {
	for _, seed := range []int64{5, 20260807} {
		t.Run(fmt.Sprintf("workers=1/seed=%d", seed), func(t *testing.T) {
			a := newMutOracleSide(0, nil)
			heap.EnableMapRemsetOracle(a.h)
			b := newMutOracleSide(4, func(cfg *heap.Config) { cfg.Workers = 1 })
			steps := 2500
			if testing.Short() {
				steps = 500
			}
			collections := 0
			master := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				sub := master.Int63()
				ca := mutOracleStep(a, rand.New(rand.NewSource(sub)))
				cb := mutOracleStep(b, rand.New(rand.NewSource(sub)))
				if ca != cb {
					t.Fatalf("step %d: sides took different ops", i)
				}
				if ca {
					collections++
					if errs := a.h.Verify(); len(errs) > 0 {
						t.Fatalf("step %d: legacy heap unsound: %v", i, errs[0])
					}
					if errs := b.h.Verify(); len(errs) > 0 {
						t.Fatalf("step %d: mutator heap unsound: %v", i, errs[0])
					}
					if err := a.compare(b); err != nil {
						t.Fatalf("step %d (after collection): %v", i, err)
					}
				}
			}
			if collections < steps/30 {
				t.Fatalf("workload only collected %d times; oracle too weak", collections)
			}
			a.collect(a.h.MaxGeneration())
			b.collect(b.h.MaxGeneration())
			if err := a.compare(b); err != nil {
				t.Fatalf("final: %v", err)
			}
			b.close()
		})
	}
}

// --- Bounded heaps -----------------------------------------------------

// TestBoundedHeapOOM pins the bounded-heap out-of-memory bound: the
// committed count never passes MaxSegments across collections of a
// growing live set, and the panic fires only with every segment
// genuinely in use and nothing left reserved.
func TestBoundedHeapOOM(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.MaxSegments = 48
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	h := heap.MustNew(cfg)
	r := h.NewRoot(obj.Nil)
	for i := 0; i < 2000; i++ {
		r.Set(h.Cons(obj.FromFixnum(int64(i)), r.Get()))
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 100*(i+1); j++ {
			r.Set(h.Cons(obj.FromFixnum(int64(j)), r.Get()))
		}
		h.Collect(h.MaxGeneration())
		h.MustVerify()
		if c := h.SegmentsInUse() + heap.ReservedSegments(h); c > cfg.MaxSegments {
			t.Fatalf("committed %d segments > MaxSegments %d", c, cfg.MaxSegments)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no OOM panic on a bounded heap")
			}
		}()
		for i := 0; ; i++ {
			r.Set(h.Cons(obj.FromFixnum(int64(i)), r.Get()))
			if i&255 == 0 {
				if c := h.SegmentsInUse() + heap.ReservedSegments(h); c > cfg.MaxSegments {
					panic(fmt.Sprintf("committed %d > MaxSegments %d before OOM", c, cfg.MaxSegments))
				}
			}
		}
	}()
	// Exactness: the panic fired only after draining every reservation
	// and filling every segment.
	if got := heap.ReservedSegments(h); got != 0 {
		t.Fatalf("OOM with %d segments still reserved", got)
	}
	if got := h.SegmentsInUse(); got != cfg.MaxSegments {
		t.Fatalf("OOM with %d/%d segments in use", got, cfg.MaxSegments)
	}
}

// TestBoundedHeapMutatorOOM checks the same exactness for the TLAB
// refill path: a mutator's clamped refills walk the heap right up to
// the limit before panicking.
func TestBoundedHeapMutatorOOM(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.MaxSegments = 24
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	h := heap.MustNew(cfg)
	m := h.RegisterMutator()
	defer m.Unregister()
	r := h.NewRoot(obj.Nil)
	defer r.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no OOM panic on a bounded heap with a mutator")
			}
		}()
		for i := 0; ; i++ {
			r.Set(m.Cons(obj.FromFixnum(int64(i)), r.Get()))
		}
	}()
	if got := h.SegmentsInUse(); got != cfg.MaxSegments {
		t.Fatalf("mutator OOM with %d/%d segments in use", got, cfg.MaxSegments)
	}
}

// --- Fuzzing -----------------------------------------------------------

// FuzzMutatorOps drives three Mutator handles from one goroutine with
// a byte-coded op stream (two bytes per op), verifying the heap
// periodically and after a final full collection. Collections use the
// idle-all schedule; everything else exercises the TLAB constructors,
// the barrier, guardians, and the Idle/Active transitions.
func FuzzMutatorOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0x02, 0x80, 0x00})
	f.Add([]byte{0x20, 0x05, 0x30, 0x07, 0x42, 0x01, 0x81, 0x03})
	f.Add([]byte{0x00, 0xff, 0x51, 0x00, 0x62, 0x10, 0x90, 0x00, 0x70, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		cfg := heap.DefaultConfig()
		cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
		h := heap.MustNew(cfg)
		tconc := h.NewRoot(makeTconc(h))
		const H = 3
		muts := make([]*heap.Mutator, H)
		for i := range muts {
			muts[i] = h.RegisterMutator()
		}
		var roots []*heap.Root
		const maxRoots = 32
		val := func(arg byte) obj.Value {
			if len(roots) == 0 || arg&1 == 0 {
				return obj.FromFixnum(int64(arg))
			}
			return roots[int(arg)%len(roots)].Get()
		}
		keep := func(v obj.Value, arg byte) {
			if len(roots) < maxRoots {
				roots = append(roots, h.NewRoot(v))
			} else {
				roots[int(arg)%maxRoots].Set(v)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			m := muts[int(op)%H]
			switch op % 11 {
			case 0:
				keep(m.Cons(val(arg), val(arg>>4)), arg)
			case 1:
				keep(m.WeakCons(val(arg), val(arg>>4)), arg)
			case 2:
				keep(m.MakeVector(int(arg)%9, val(arg>>4)), arg)
			case 3:
				keep(m.MakeString(fmt.Sprintf("f%d", arg)), arg)
			case 4:
				if len(roots) > 0 {
					p := roots[int(arg)%len(roots)].Get()
					if p.IsPair() && !h.IsWeakPair(p) {
						h.SetCar(p, val(arg>>4))
					}
				}
			case 5:
				if len(roots) > 0 {
					p := roots[int(arg)%len(roots)].Get()
					if p.IsPair() && !h.IsWeakPair(p) {
						h.SetCdr(p, val(arg>>4))
					}
				}
			case 6:
				if len(roots) > 2 {
					j := int(arg) % len(roots)
					roots[j].Release()
					roots[j] = roots[len(roots)-1]
					roots = roots[:len(roots)-1]
				}
			case 7:
				if v := val(arg); v.IsPointer() {
					h.InstallGuardian(v, tconc.Get())
				}
			case 8: // collect with every handle idled
				for _, mm := range muts {
					mm.Idle()
				}
				h.Collect(int(arg) % (h.MaxGeneration() + 1))
				for _, mm := range muts {
					mm.Active()
				}
			case 9:
				m.Safepoint()
			case 10:
				m.Idle()
				m.Active()
			}
			if i%82 == 80 {
				h.MustVerify()
			}
		}
		for _, mm := range muts {
			mm.Idle()
		}
		h.Collect(h.MaxGeneration())
		for _, mm := range muts {
			mm.Active()
		}
		h.MustVerify()
		for _, mm := range muts {
			mm.Unregister()
		}
		h.MustVerify()
	})
}

// TestAllocLegacyZeroGoAllocs pins the legacy single-mutator allocation
// path at zero Go-level allocations in steady state: the fast path is a
// pure cursor bump, the slow path recycles retired segments (whose
// backing arrays persist on the free list), and the collections
// Checkpoint runs reuse their buffers. Any regression that moves
// bookkeeping back onto the per-allocation path shows up here before it
// shows up as a BenchmarkAllocLegacy delta.
func TestAllocLegacyZeroGoAllocs(t *testing.T) {
	h := heap.NewDefault()
	r := h.NewRoot(obj.Nil)
	defer r.Release()
	step := func() {
		for i := 0; i < 2000; i++ {
			r.Set(h.Cons(fx(int64(i)), obj.Nil))
		}
		h.Checkpoint()
	}
	for i := 0; i < 40; i++ {
		step() // reach steady state: segment arrays and GC buffers warm
	}
	if avg := testing.AllocsPerRun(20, step); avg > 0 {
		t.Fatalf("legacy alloc path allocates %.1f Go objects/run, want 0", avg)
	}
}

// --- Benchmarks --------------------------------------------------------

// BenchmarkAllocLegacy is the pre-existing single-mutator allocation
// fast path: the baseline the TLAB fast path is measured against.
func BenchmarkAllocLegacy(b *testing.B) {
	h := heap.NewDefault()
	r := h.NewRoot(obj.Nil)
	defer r.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Set(h.Cons(obj.FromFixnum(int64(i)), obj.Nil))
		if i&1023 == 1023 {
			h.Checkpoint()
		}
	}
}

// BenchmarkAllocConcurrent measures the TLAB fast path at 1, 2, 4, and
// 8 mutator goroutines. The mutators=1 figure is the apples-to-apples
// comparison against BenchmarkAllocLegacy (the acceptance bound: within
// 10%); the higher counts measure handshake and allocMu contention.
func BenchmarkAllocConcurrent(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mutators=%d", k), func(b *testing.B) {
			h := heap.NewDefault()
			per := b.N/k + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < k; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					m := h.RegisterMutator()
					defer m.Unregister()
					r := h.NewRoot(obj.Nil)
					defer r.Release()
					for i := 0; i < per; i++ {
						r.Set(m.Cons(obj.FromFixnum(int64(i)), obj.Nil))
						if i&1023 == 1023 {
							m.Checkpoint()
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
