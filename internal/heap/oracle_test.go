package heap_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// The comment on copier.oldScanPhase calls it "a correctness oracle for the
// dirty-set implementation"; this test actually cross-checks the two.
// A seeded random workload — allocation, mutation, root drops,
// guardian registration, weak pairs, collections of random
// generations — is applied in lockstep to two heaps that differ only
// in UseDirtySet. After every collection the reachable heap contents
// must be structurally isomorphic, and guardian/weak outcomes must
// agree exactly.

// oracleHeap is one side of the lockstep pair.
type oracleHeap struct {
	h     *heap.Heap
	roots []*heap.Root
	tconc *heap.Root
	// collect is the workload's collection op; nil collects a random
	// generation range of the heap's own.
	collect func(h *heap.Heap, rng *rand.Rand)
}

func newOracleHeap(mut func(*heap.Config)) *oracleHeap {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30} // collections are explicit ops only
	if mut != nil {
		mut(&cfg)
	}
	h := heap.MustNew(cfg)
	dummy := h.Cons(obj.False, obj.False)
	tc := h.Cons(dummy, dummy)
	return &oracleHeap{h: h, tconc: h.NewRoot(tc)}
}

// structEqual walks a and b in lockstep, requiring a bijective
// correspondence between their heap addresses (same shape, same
// immediates, same weak-ness, same sharing).
func structEqual(ha, hb *heap.Heap, a, b obj.Value) error {
	seen := make(map[uint64]uint64) // a-addr -> b-addr
	rev := make(map[uint64]uint64)  // b-addr -> a-addr
	type frame struct{ a, b obj.Value }
	stack := []frame{{a, b}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a, b := f.a, f.b
		if a.IsPointer() != b.IsPointer() {
			return fmt.Errorf("pointer vs non-pointer: %v vs %v", a, b)
		}
		if !a.IsPointer() {
			if a != b {
				return fmt.Errorf("immediates differ: %v vs %v", a, b)
			}
			continue
		}
		if pb, ok := seen[a.Addr()]; ok {
			if pb != b.Addr() {
				return fmt.Errorf("sharing differs: a@%d maps to b@%d and b@%d", a.Addr(), pb, b.Addr())
			}
			continue
		}
		if _, ok := rev[b.Addr()]; ok {
			return fmt.Errorf("sharing differs: b@%d corresponds to two a objects", b.Addr())
		}
		seen[a.Addr()] = b.Addr()
		rev[b.Addr()] = a.Addr()
		switch {
		case a.IsPair() && b.IsPair():
			if ha.IsWeakPair(a) != hb.IsWeakPair(b) {
				return fmt.Errorf("weak-ness differs at a@%d/b@%d", a.Addr(), b.Addr())
			}
			stack = append(stack,
				frame{ha.Car(a), hb.Car(b)},
				frame{ha.Cdr(a), hb.Cdr(b)})
		case a.IsObj() && b.IsObj():
			av, bv := ha.IsKind(a, obj.KVector), hb.IsKind(b, obj.KVector)
			if av != bv {
				return fmt.Errorf("object kinds differ at a@%d/b@%d", a.Addr(), b.Addr())
			}
			if av {
				if ha.VectorLength(a) != hb.VectorLength(b) {
					return fmt.Errorf("vector lengths differ: %d vs %d", ha.VectorLength(a), hb.VectorLength(b))
				}
				for i := 0; i < ha.VectorLength(a); i++ {
					stack = append(stack, frame{ha.VectorRef(a, i), hb.VectorRef(b, i)})
				}
			} else if ha.IsKind(a, obj.KString) && hb.IsKind(b, obj.KString) {
				if ha.StringValue(a) != hb.StringValue(b) {
					return fmt.Errorf("strings differ: %q vs %q", ha.StringValue(a), hb.StringValue(b))
				}
			} else {
				return fmt.Errorf("unexpected object kind in oracle workload")
			}
		default:
			return fmt.Errorf("value shapes differ: %v vs %v", a, b)
		}
	}
	return nil
}

func (o *oracleHeap) compare(other *oracleHeap) error {
	if len(o.roots) != len(other.roots) {
		return fmt.Errorf("root counts differ: %d vs %d", len(o.roots), len(other.roots))
	}
	for i := range o.roots {
		if err := structEqual(o.h, other.h, o.roots[i].Get(), other.roots[i].Get()); err != nil {
			return fmt.Errorf("root %d: %w", i, err)
		}
	}
	// The guardian tconc (queue of salvaged representatives, in
	// salvage order) must agree exactly.
	if err := structEqual(o.h, other.h, o.tconc.Get(), other.tconc.Get()); err != nil {
		return fmt.Errorf("guardian tconc: %w", err)
	}
	// When both configurations maintain a remembered set, its
	// deduplicated size must agree too: the remembered cells correspond
	// under the bijection, and retirement decisions depend only on
	// generations, which the configurations assign identically.
	if o.h.Config().UseDirtySet && other.h.Config().UseDirtySet {
		if o.h.DirtyCount() != other.h.DirtyCount() {
			return fmt.Errorf("dirty counts differ: %d vs %d", o.h.DirtyCount(), other.h.DirtyCount())
		}
	}
	// Weak and guardian outcome counters are configuration-independent
	// even though the scanning work differs.
	sa, sb := &o.h.Stats, &other.h.Stats
	if sa.WeakPointersBroken != sb.WeakPointersBroken {
		return fmt.Errorf("weak broken differ: %d vs %d", sa.WeakPointersBroken, sb.WeakPointersBroken)
	}
	if sa.GuardianEntriesSalvaged != sb.GuardianEntriesSalvaged {
		return fmt.Errorf("salvaged differ: %d vs %d", sa.GuardianEntriesSalvaged, sb.GuardianEntriesSalvaged)
	}
	if sa.GuardianEntriesDropped != sb.GuardianEntriesDropped {
		return fmt.Errorf("dropped differ: %d vs %d", sa.GuardianEntriesDropped, sb.GuardianEntriesDropped)
	}
	// So is the copying itself: the same objects survive, each copied
	// once, and the same protected-list prefixes are examined.
	if sa.WordsCopied != sb.WordsCopied {
		return fmt.Errorf("words copied differ: %d vs %d", sa.WordsCopied, sb.WordsCopied)
	}
	if sa.GuardianEntriesScanned != sb.GuardianEntriesScanned {
		return fmt.Errorf("guardian entries scanned differ: %d vs %d", sa.GuardianEntriesScanned, sb.GuardianEntriesScanned)
	}
	return nil
}

// randomValue picks a leaf or an existing root's value.
func (o *oracleHeap) randomValue(rng *rand.Rand) obj.Value {
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

// oracleStep applies one random op to o and reports whether it was a
// collection. Each call receives a freshly seeded rng, so two heaps
// stepped with the same sub-seed consume identical random streams as
// long as they stay isomorphic.
func oracleStep(o *oracleHeap, rng *rand.Rand) bool {
	h := o.h
	switch op := rng.Intn(100); {
	case op < 35: // cons
		o.roots = append(o.roots, h.NewRoot(h.Cons(o.randomValue(rng), o.randomValue(rng))))
	case op < 45: // weak cons
		o.roots = append(o.roots, h.NewRoot(h.WeakCons(o.randomValue(rng), o.randomValue(rng))))
	case op < 50: // vector
		v := h.MakeVector(1+rng.Intn(6), obj.Nil)
		for i := 0; i < h.VectorLength(v); i++ {
			h.VectorSet(v, i, o.randomValue(rng))
		}
		o.roots = append(o.roots, h.NewRoot(v))
	case op < 53: // string
		o.roots = append(o.roots, h.NewRoot(h.MakeString(fmt.Sprintf("s%d", rng.Intn(100)))))
	case op < 68: // mutate a random pair root
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
	case op < 78: // drop a root
		if len(o.roots) > 4 {
			i := rng.Intn(len(o.roots))
			o.roots[i].Release()
			o.roots[i] = o.roots[len(o.roots)-1]
			o.roots = o.roots[:len(o.roots)-1]
		}
	case op < 85: // register a rooted object with the guardian
		if len(o.roots) > 0 {
			v := o.roots[rng.Intn(len(o.roots))].Get()
			if v.IsPointer() {
				h.InstallGuardian(v, o.tconc.Get())
			}
		}
	case op < 90: // register a dropped object (salvage fodder)
		h.InstallGuardian(h.Cons(obj.FromFixnum(int64(rng.Intn(50))), obj.Nil), o.tconc.Get())
	default: // collect a random generation range
		if o.collect != nil {
			o.collect(h, rng)
		} else {
			h.Collect(rng.Intn(h.MaxGeneration() + 1))
		}
		return true
	}
	return false
}

// runOracleLockstep drives heaps a and b through the same seeded
// workload (oracleLockstep) and closes with a full collection of each,
// draining the guardians, and a last comparison.
func runOracleLockstep(t *testing.T, seed int64, steps int, a, b *oracleHeap, aName, bName string) {
	t.Helper()
	oracleLockstep(t, seed, steps, a, b, aName, bName, nil)
	a.h.Collect(a.h.MaxGeneration())
	b.h.Collect(b.h.MaxGeneration())
	if err := a.compare(b); err != nil {
		t.Fatalf("final: %v", err)
	}
}

// oracleLockstep applies the same seeded ops to heaps a and b,
// verifying both heaps and requiring isomorphism (and identical
// guardian/weak outcomes) after every collection; after, when non-nil,
// then runs the caller's own checks.
func oracleLockstep(t *testing.T, seed int64, steps int, a, b *oracleHeap, aName, bName string, after func()) {
	t.Helper()
	collections := 0
	master := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		sub := master.Int63()
		ca := oracleStep(a, rand.New(rand.NewSource(sub)))
		cb := oracleStep(b, rand.New(rand.NewSource(sub)))
		if ca != cb {
			t.Fatalf("step %d: heaps took different ops", i)
		}
		if ca {
			collections++
			if errs := a.h.Verify(); len(errs) > 0 {
				t.Fatalf("step %d: %s heap unsound: %v", i, aName, errs[0])
			}
			if errs := b.h.Verify(); len(errs) > 0 {
				t.Fatalf("step %d: %s heap unsound: %v", i, bName, errs[0])
			}
			if err := a.compare(b); err != nil {
				t.Fatalf("step %d (after collection): %v", i, err)
			}
			if after != nil {
				after()
			}
		}
	}
	if collections < steps/30 {
		t.Fatalf("workload only collected %d times; oracle too weak", collections)
	}
}

func TestDirtySetOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 20260805} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a := newOracleHeap(nil)
			b := newOracleHeap(func(cfg *heap.Config) { cfg.UseDirtySet = false })
			runOracleLockstep(t, seed, 3000, a, b, "dirty-set", "scan-all-old")
		})
	}
}
