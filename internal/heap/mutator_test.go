package heap_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// Tests for Mutator handles: goroutines taking turns on one heap, one
// owner at a time. A handle holds the heap between RegisterMutator or
// Active and Idle or Unregister; the holder uses the handle and the
// Heap API alike, and heap values survive a hand-off only in Roots.

// stressMutator is one goroutine of the stress workload: a registered
// mutator applying a seeded random mix of allocation, mutation,
// guardian registration, collections, and hand-offs of the heap to the
// other goroutines.
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
		case op < 86:
			if v := rv(); v.IsPointer() {
				h.InstallGuardian(v, tconc.Get())
			}
		case op < 92: // hand the heap to whoever is waiting
			m.Idle()
			runtime.Gosched()
			m.Active()
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

// TestMutatorStress runs four mutator goroutines that take turns on one
// heap and verifies it afterwards. Run under -race, it checks that the
// ownership mutex orders every holder's heap accesses before the
// next's. It runs at both Config.Workers values Validate accepts, 1 and
// unset; each is the one copier.
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
			h.MustVerify()
			h.Collect(h.MaxGeneration())
			h.MustVerify()
			tc.Release()
		})
	}
}

// TestMutatorHandOff: two goroutines, each with a registered handle,
// run rounds of Active, building lists into their own slots of one
// tenured vector, Checkpoint, Idle. Each round reads back the lists
// its previous round stored, across the other goroutine's allocation
// and collections; afterwards every slot reads back, collections have
// run, and Verify is clean. Run under -race, it checks the hand-off
// orders one holder's heap accesses before the next's.
func TestMutatorHandOff(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 12}
	h := heap.MustNew(cfg)
	const goroutines, slots = 2, 8
	vec := h.NewRoot(h.MakeVector(goroutines*slots, obj.Nil))
	for g := 0; g < h.MaxGeneration(); g++ {
		h.Collect(g) // tenure the vector: every store into it is old-to-young
	}
	before := h.Stats.Collections
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	// want[s] is the length of the list in slot s; list s holds
	// s*1000, s*1000+1, ... Each goroutine writes only its own slots.
	want := make([]int, goroutines*slots)
	check := func(s int) error {
		p := h.VectorRef(vec.Get(), s)
		for i := 0; i < want[s]; i++ {
			if !p.IsPair() || h.Car(p) != fx(int64(s*1000+i)) {
				return fmt.Errorf("slot %d: element %d wrong", s, i)
			}
			p = h.Cdr(p)
		}
		if p != obj.Nil {
			return fmt.Errorf("slot %d: list longer than %d", s, want[s])
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := h.RegisterMutator()
			m.Idle()
			defer m.Unregister()
			for r := 0; r < rounds; r++ {
				m.Active()
				for s := g * slots; s < (g+1)*slots; s++ {
					if err := check(s); err != nil {
						t.Errorf("goroutine %d round %d: %v", g, r, err)
					}
					n := 50 + (r*7+s)%150
					lst := obj.Nil
					for i := n - 1; i >= 0; i-- {
						lst = m.Cons(fx(int64(s*1000+i)), lst)
					}
					m.VectorSet(vec.Get(), s, lst)
					want[s] = n
				}
				m.Checkpoint()
				m.Idle()
			}
		}(g)
	}
	wg.Wait()
	for s := range want {
		if err := check(s); err != nil {
			t.Error(err)
		}
	}
	if h.Stats.Collections == before {
		t.Error("no collection ran during the hand-offs")
	}
	h.MustVerify()
}

// TestMutatorIdleCollect drives two handles from one goroutine, handing
// the heap back and forth: a collection by either holder, and one by
// the goroutine while every handle is idle, keeps rooted structure. A
// handle used out of turn panics.
func TestMutatorIdleCollect(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
	h := heap.MustNew(cfg)
	m1 := h.RegisterMutator()
	r := h.NewRoot(m1.Cons(obj.FromFixnum(1), obj.Nil))
	m1.Idle()
	m2 := h.RegisterMutator() // gets the heap m1 gave up
	m2.Collect(0)
	if h.Car(r.Get()).FixnumValue() != 1 {
		t.Fatal("rooted pair lost across a collection by the second holder")
	}
	m2.Idle()
	h.Collect(0) // no handle active: the goroutine uses the heap outright
	h.MustVerify()
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Idle: mutator not active") {
				t.Fatalf("Idle on an idle handle: %q, want a panic", msg)
			}
		}()
		m2.Idle()
	}()
	m1.Active()
	m1.Collect(h.MaxGeneration())
	m1.Unregister()
	m2.Unregister() // idle: nothing to give up
	if h.Car(r.Get()).FixnumValue() != 1 {
		t.Fatal("rooted pair lost across the hand-offs")
	}
	r.Release()
	h.MustVerify()
	h.RegisterMutator().Unregister() // nothing holds the heap
}

// TestMutatorChurn runs register/allocate/collect/unregister cycles on
// four goroutines: each registration waits for the holder before it,
// and the list a cycle builds survives its own collection.
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
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				m := h.RegisterMutator()
				r := h.NewRoot(obj.Nil)
				for i := 0; i < 300; i++ {
					r.Set(m.Cons(obj.FromFixnum(int64(i)), r.Get()))
				}
				m.Collect(c % 2)
				n := 0
				for p := r.Get(); p.IsPair(); p = h.Cdr(p) {
					n++
				}
				if n != 300 {
					t.Errorf("cycle %d: list of %d pairs after the collection, want 300", c, n)
				}
				r.Release()
				m.Unregister()
			}
		}()
	}
	wg.Wait()
	h.MustVerify()
	h.Collect(h.MaxGeneration())
	h.MustVerify()
}

// --- Deterministic multi-mutator lockstep oracle ---------------------

// mutOracleSide is one side of the lockstep pair: a heap driven either
// through the Heap API or through a set of Mutator handles that take
// turns round-robin, the heap handed to the next one at every step.
// All handles are driven from the test goroutine.
type mutOracleSide struct {
	h     *heap.Heap
	muts  []*heap.Mutator
	cur   int // the active handle
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
		m := h.RegisterMutator()
		m.Idle()
		o.muts = append(o.muts, m)
	}
	if handles > 0 {
		o.muts[0].Active()
	}
	return o
}

// handle hands the heap to this step's handle and returns it.
func (o *mutOracleSide) handle() *heap.Mutator {
	if len(o.muts) == 0 {
		return nil
	}
	if k := o.n % len(o.muts); k != o.cur {
		o.muts[o.cur].Idle()
		o.muts[k].Active()
		o.cur = k
	}
	return o.muts[o.cur]
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
	if m := o.handle(); m != nil {
		m.Collect(g)
		return
	}
	o.h.Collect(g)
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
// stay isomorphic as long as the hand-offs change nothing the heap
// builds.
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

// TestMutatorOracle steps a heap running the map-based remembered-set
// oracle and a heap four handles take turns on (the sharded set),
// through an identical seeded workload. After every collection the
// object graphs must be isomorphic and the deduplicated dirty counts
// and guardian/weak outcomes identical: handing the heap over changes
// nothing it allocates, remembers, salvages or breaks.
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
// segments in use never pass MaxSegments across collections of a
// growing live set, and the panic fires at exactly MaxSegments in use.
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
		if c := h.SegmentsInUse(); c > cfg.MaxSegments {
			t.Fatalf("%d segments in use > MaxSegments %d", c, cfg.MaxSegments)
		}
	}
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "out of memory") {
				t.Fatalf("bounded heap: %q, want an out-of-memory panic", msg)
			}
		}()
		for i := 0; ; i++ {
			r.Set(h.Cons(obj.FromFixnum(int64(i)), r.Get()))
		}
	}()
	if got := h.SegmentsInUse(); got != cfg.MaxSegments {
		t.Fatalf("OOM with %d/%d segments in use", got, cfg.MaxSegments)
	}
}

// TestBoundedHeapMutatorOOM checks the same exactness through a
// Mutator handle.
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
// a byte-coded op stream (two bytes per op), each op handing the heap
// to the handle it names, verifying the heap periodically and after a
// final full collection. Collections run either from the holder or
// with every handle idle.
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
			muts[i].Idle()
		}
		cur := muts[0]
		cur.Active()
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
			if m != cur {
				cur.Idle()
				m.Active()
				cur = m
			}
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
			case 8: // collect with every handle idle
				m.Idle()
				h.Collect(int(arg) % (h.MaxGeneration() + 1))
				m.Active()
			case 9:
				m.Collect(int(arg) % (h.MaxGeneration() + 1))
			case 10:
				m.Checkpoint()
			}
			if i%82 == 80 {
				h.MustVerify()
			}
		}
		cur.Collect(h.MaxGeneration())
		h.MustVerify()
		for _, mm := range muts {
			mm.Unregister()
		}
		h.RegisterMutator().Unregister() // every handle gave the heap up
		h.MustVerify()
	})
}

// TestAllocLegacyZeroGoAllocs pins the allocation path at zero Go-level allocations in steady state: the fast path is a
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

// BenchmarkAllocLegacy is the allocation fast path: a Cons per
// iteration, a Checkpoint every 1024.
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
