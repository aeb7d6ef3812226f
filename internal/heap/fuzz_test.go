package heap_test

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// FuzzRememberedSet drives the write barrier and the collector through
// fuzzer-chosen interleavings of strong writes, weak-car writes,
// guardian registrations, and collections of arbitrary generation
// ranges, with the full heap verifier run after every single step.
// The corpus is seeded with the
// cross-generation guardian scenario (collector-performed old-to-young
// tconc writes, crossgen_test.go) and a weak-promotion scenario (a
// weak pair promoted with its referent, then broken by a full
// collection).
//
// Input encoding: two bytes per operation (opcode, argument); opcodes
// are taken mod 10. Inputs are capped at 120 operations so each
// execution stays cheap enough to verify at every step.

func runRemsetFuzz(t *testing.T, data []byte) {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30} // collections are fuzz ops only
	h := heap.MustNew(cfg)
	tconc := h.NewRoot(makeTconc(h))
	roots := []*heap.Root{h.NewRoot(h.Cons(obj.FromFixnum(0), obj.Nil))}
	pick := func(sel byte) obj.Value {
		switch sel % 4 {
		case 0:
			return obj.FromFixnum(int64(sel))
		case 1:
			return obj.Nil
		default:
			return roots[int(sel)%len(roots)].Get()
		}
	}
	verify := func(step int, op byte) {
		if errs := h.Verify(); len(errs) > 0 {
			t.Fatalf("step %d (op %d): heap unsound: %v", step, op, errs[0])
		}
	}
	const maxOps = 120
	for i, step := 0, 0; i+1 < len(data) && step < maxOps; i, step = i+2, step+1 {
		op, arg := data[i]%10, data[i+1]
		switch op {
		case 0: // cons, rooted
			roots = append(roots, h.NewRoot(h.Cons(pick(arg), pick(arg+1))))
		case 1: // weak cons, rooted
			roots = append(roots, h.NewRoot(h.WeakCons(pick(arg), pick(arg+3))))
		case 2: // strong car write (barrier: old-to-young candidates)
			if v := roots[int(arg)%len(roots)].Get(); v.IsPair() && !h.IsWeakPair(v) {
				h.SetCar(v, pick(arg+1))
			}
		case 3: // cdr write on any pair (weak cdrs are strong cells)
			if v := roots[int(arg)%len(roots)].Get(); v.IsPair() {
				h.SetCdr(v, pick(arg+1))
			}
		case 4: // weak-car write (barrier: weak remembered entries)
			if v := roots[int(arg)%len(roots)].Get(); v.IsPair() && h.IsWeakPair(v) {
				h.SetCar(v, pick(arg+1))
			}
		case 5: // drop a root
			if len(roots) > 2 {
				j := int(arg) % len(roots)
				roots[j].Release()
				roots[j] = roots[len(roots)-1]
				roots = roots[:len(roots)-1]
			}
		case 6: // collect a fuzzer-chosen generation range
			h.Collect(int(arg) % (h.MaxGeneration() + 1))
		case 7: // guard a rooted value
			if v := roots[int(arg)%len(roots)].Get(); v.IsPointer() {
				h.InstallGuardian(v, tconc.Get())
			}
		case 8: // guard a dropped cons (salvage fodder)
			h.InstallGuardian(h.Cons(obj.FromFixnum(int64(arg)), obj.Nil), tconc.Get())
		case 9: // drain one salvaged element (mutator-side tconc read)
			tconcGet(h, tconc.Get())
		}
		verify(step, op)
	}
	h.Collect(h.MaxGeneration())
	verify(maxOps, 6)
}

func FuzzRememberedSet(f *testing.F) {
	// Seed: the crossgen scenario — tenure the tconc deep, register a
	// dropped object, salvage it into the tenured tconc (the collector's
	// own old-to-young write), churn through young collections, drain.
	f.Add([]byte{
		6, 3, 6, 3, // two full collections: tconc tenured to the oldest generation
		8, 31, // register a dropped cons
		6, 0, // young collection: salvage writes old-to-young into the tconc
		0, 5, 0, 9, // cons churn
		6, 0, // young collection: dirty entry keeps the queued object alive
		9, 0, // drain
	})
	// Seed: the weak-promotion scenario — a weak pair promoted with its
	// referent, then the referent dies and the weak car breaks.
	f.Add([]byte{
		0, 0, // young strong pair
		1, 2, // weak pair pointing at a root
		6, 1, // collect 0..1: weak pair promoted with its referent
		6, 0, // young collection
		5, 1, // drop a root
		4, 3, // weak-car write
		6, 3, // full collection: break dead weak cars
	})
	// Seed: mixed churn touching every opcode.
	f.Add([]byte{
		0, 7, 1, 9, 2, 4, 3, 5, 4, 6, 8, 40, 7, 1, 6, 0,
		0, 11, 2, 2, 6, 1, 5, 3, 9, 0, 6, 2, 1, 13, 4, 1,
		6, 3, 9, 9,
	})
	f.Fuzz(runRemsetFuzz)
}
