package heap_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

func TestHeapImageRoundTrip(t *testing.T) {
	h := heap.NewDefault()
	// Build varied state: structures in several generations, a weak
	// pair, a guardian with pending registration, a dirty cell.
	lst := h.NewRoot(h.List(obj.FromFixnum(1), obj.FromFixnum(2), obj.FromFixnum(3)))
	h.NewRoot(h.MakeString("imaged string"))         // slot 1
	h.NewRoot(h.Vector(obj.True, h.MakeFlonum(2.5))) // slot 2
	h.Collect(0)
	h.Collect(1) // tenure to generation 2
	young := h.NewRoot(h.Cons(obj.FromFixnum(9), obj.Nil))
	h.SetCar(lst.Get(), young.Get())            // old-to-young via dirty set
	h.NewRoot(h.WeakCons(young.Get(), obj.Nil)) // slot 4
	tc := h.NewRoot(makeTconc(h))
	pending := h.Cons(obj.FromFixnum(77), obj.Nil)
	h.InstallGuardian(pending, tc.Get())

	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}

	h2, roots, err := heap.LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Recover the same slots in saved order.
	lst2, str2, vec2 := roots[0], roots[1], roots[2]
	young2, weak2, tc2 := roots[3], roots[4], roots[5]

	if h2.Car(h2.Car(lst2.Get())).FixnumValue() != 9 {
		t.Fatal("list structure lost across image")
	}
	if h2.StringValue(str2.Get()) != "imaged string" {
		t.Fatal("string lost across image")
	}
	if h2.FlonumValue(h2.VectorRef(vec2.Get(), 1)) != 2.5 {
		t.Fatal("vector/flonum lost across image")
	}
	if h2.Car(weak2.Get()) != young2.Get() {
		t.Fatal("weak pair lost across image")
	}
	if h2.ProtectedCount() != 1 {
		t.Fatal("protected entry lost across image")
	}
	// Collections work after load: drop young, its weak pointer breaks
	// and the guardian's pending object is salvageable.
	young2.Release()
	h2.SetCar(lst2.Get(), obj.False)
	h2.Collect(h2.MaxGeneration())
	if h2.Car(weak2.Get()) != obj.False {
		t.Fatal("weak pointer not broken after post-load collection")
	}
	got, ok := tconcGet(h2, tc2.Get())
	if !ok || h2.Car(got).FixnumValue() != 77 {
		t.Fatal("guardian registration not honored after load")
	}
	h2.MustVerify()
}

func TestHeapImageDirtySetPreserved(t *testing.T) {
	h := heap.NewDefault()
	old := h.NewRoot(h.Cons(obj.False, obj.Nil))
	h.Collect(0)
	h.Collect(1)
	h.SetCar(old.Get(), h.Cons(obj.FromFixnum(5), obj.Nil))
	if h.DirtyCount() == 0 {
		t.Fatal("setup: no dirty cells")
	}
	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	h2, roots, err := heap.LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.DirtyCount() != h.DirtyCount() {
		t.Fatalf("dirty set size changed: %d vs %d", h2.DirtyCount(), h.DirtyCount())
	}
	// The young referent must survive a young collection after load.
	h2.Collect(0)
	if h2.Car(h2.Car(roots[0].Get())).FixnumValue() != 5 {
		t.Fatal("dirty-set referent lost after image round trip")
	}
}

// TestHeapImageShardedRemsetRoundTrip saves an image mid-mutation with
// a well-populated sharded remembered set — strong entries spread over
// several shards plus a weak entry — and checks that the restored heap
// rebuilds an equivalent sharded set: same deduplicated count, same
// per-shard sizes, and the same collection behaviour afterwards (young
// referents survive via the strong entries, the weak car breaks when
// its referent dies).
func TestHeapImageShardedRemsetRoundTrip(t *testing.T) {
	h := heap.NewDefault()
	const n = 12
	old := h.NewRoot(func() obj.Value {
		var l obj.Value = obj.Nil
		for i := 0; i < n; i++ {
			l = h.Cons(obj.False, l)
		}
		return l
	}())
	weak := h.NewRoot(h.WeakCons(obj.Nil, obj.Nil))
	h.Collect(0)
	h.Collect(1) // tenure the list spine and the weak pair to gen 2

	// Mid-mutation: dirty every spine car with a distinct young pair,
	// and point the tenured weak car at a young object that is kept
	// alive only via one of those strong cells.
	i := 0
	for v := old.Get(); v.IsPair(); v = h.Cdr(v) {
		h.SetCar(v, h.Cons(obj.FromFixnum(int64(i)), obj.Nil))
		i++
	}
	h.SetCar(weak.Get(), h.Car(old.Get())) // weak remembered entry
	if h.DirtyCount() < n+1 {
		t.Fatalf("setup: DirtyCount %d, want >= %d", h.DirtyCount(), n+1)
	}
	sizes := h.RemSetShardSizes()
	populated := 0
	for _, s := range sizes {
		if s > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("setup: remembered cells landed in %d shard(s); want spread", populated)
	}

	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	h2, roots, err := heap.LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.DirtyCount() != h.DirtyCount() {
		t.Fatalf("restored DirtyCount %d, want %d", h2.DirtyCount(), h.DirtyCount())
	}
	sizes2 := h2.RemSetShardSizes()
	for si := range sizes {
		if sizes[si] != sizes2[si] {
			t.Fatalf("shard %d size changed across round trip: %d vs %d", si, sizes[si], sizes2[si])
		}
	}
	h2.MustVerify()

	// A young collection on the restored heap must keep every young
	// referent alive through the restored strong entries, and keep the
	// weak car intact (its referent survives via the strong cell).
	h2.Collect(0)
	h2.MustVerify()
	old2, weak2 := roots[0], roots[1]
	i = 0
	for v := old2.Get(); v.IsPair(); v = h2.Cdr(v) {
		if got := h2.Car(h2.Car(v)).FixnumValue(); got != int64(i) {
			t.Fatalf("spine car %d: restored referent holds %d", i, got)
		}
		i++
	}
	if !h2.IsWeakPair(weak2.Get()) || h2.Car(weak2.Get()) != h2.Car(old2.Get()) {
		t.Fatal("restored weak car no longer points at the shared referent")
	}
	// Sever the strong path; the restored weak remembered entry must
	// now let the collector break the weak car rather than retain it.
	h2.SetCar(old2.Get(), obj.Nil)
	h2.Collect(h2.MaxGeneration())
	h2.MustVerify()
	if got := h2.Car(weak2.Get()); got != obj.False {
		t.Fatalf("weak car after referent death: %v, want #f", got)
	}
}

func TestHeapImageAllocationContinues(t *testing.T) {
	h := heap.NewDefault()
	r := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	h2, roots, err := heap.LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	// Heavy allocation and collection churn on the restored heap.
	for i := 0; i < 20000; i++ {
		h2.Cons(obj.FromFixnum(int64(i)), obj.Nil)
	}
	h2.Collect(h2.MaxGeneration())
	if h2.Car(roots[0].Get()).FixnumValue() != 1 {
		t.Fatal("restored root lost after churn")
	}
	h2.MustVerify()
}

func TestHeapImageRejectsGarbage(t *testing.T) {
	if _, _, err := heap.LoadImage(strings.NewReader("not an image at all")); err == nil {
		t.Fatal("garbage accepted as image")
	}
	if _, _, err := heap.LoadImage(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted as image")
	}
	// Truncated image.
	h := heap.NewDefault()
	h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	tr := buf.Bytes()[:buf.Len()/2]
	if _, _, err := heap.LoadImage(bytes.NewReader(tr)); err == nil {
		t.Fatal("truncated image accepted")
	}
}

func TestHeapImageReleasedRootSlotsStayFree(t *testing.T) {
	h := heap.NewDefault()
	a := h.NewRoot(obj.FromFixnum(1))
	b := h.NewRoot(obj.FromFixnum(2))
	a.Release()
	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	h2, roots, err := heap.LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if roots[0] != nil {
		t.Fatal("released slot restored as live")
	}
	if roots[1] == nil || roots[1].Get().FixnumValue() != 2 {
		t.Fatal("live slot not restored")
	}
	// The free slot is reusable.
	c := h2.NewRoot(obj.FromFixnum(3))
	if c.Get().FixnumValue() != 3 {
		t.Fatal("slot reuse broken after load")
	}
	_ = b
}

func TestPropertyImageRoundTripRandomHeaps(t *testing.T) {
	// Random stress-built heaps must round-trip through an image with
	// structure, guardians, and invariants intact.
	for seed := int64(1); seed <= 8; seed++ {
		h := heap.NewDefault()
		s := &stressState{h: h, rng: rand.New(rand.NewSource(seed * 101))}
		for i := 0; i < 200; i++ {
			s.step()
			if i%13 == 12 {
				h.Collect(s.rng.Intn(4))
			}
		}
		before := describeReachable(h, s)
		var buf bytes.Buffer
		if err := h.SaveImage(&buf); err != nil {
			t.Fatalf("seed %d: save: %v", seed, err)
		}
		h2, _, err := heap.LoadImage(&buf)
		if err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		// Same slots; rebuild a state view over the loaded heap.
		if errs := h2.Verify(); len(errs) > 0 {
			t.Fatalf("seed %d: loaded heap unsound: %v", seed, errs[0])
		}
		after := describeHeapRoots(h2)
		if before != after {
			t.Fatalf("seed %d: reachable structure changed across image:\n%s\nvs\n%s",
				seed, before, after)
		}
		// The loaded heap keeps collecting soundly.
		h2.Collect(h2.MaxGeneration())
		if errs := h2.Verify(); len(errs) > 0 {
			t.Fatalf("seed %d: post-load collection unsound: %v", seed, errs[0])
		}
	}
}

// describeReachable renders the values of all live root slots of the
// original heap (matching saved slot order).
func describeReachable(h *heap.Heap, s *stressState) string {
	return describeHeapRoots(h)
}

// describeHeapRoots renders every live root slot's structure to a
// bounded depth, deterministically.
func describeHeapRoots(h *heap.Heap) string {
	var sb strings.Builder
	for i := 0; ; i++ {
		v, ok := h.RootSlot(i)
		if !ok {
			break
		}
		describeValue(&sb, h, v, 4)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func describeValue(sb *strings.Builder, h *heap.Heap, v obj.Value, depth int) {
	if depth == 0 {
		sb.WriteString("…")
		return
	}
	switch {
	case v.IsFixnum():
		fmt.Fprintf(sb, "%d", v.FixnumValue())
	case !v.IsPointer():
		fmt.Fprintf(sb, "imm%x", uint64(v)&0xff)
	case v.IsPair():
		kind := "P"
		if h.IsWeakPair(v) {
			kind = "W"
		}
		sb.WriteString(kind + "(")
		describeValue(sb, h, h.Car(v), depth-1)
		sb.WriteString(" . ")
		describeValue(sb, h, h.Cdr(v), depth-1)
		sb.WriteString(")")
	default:
		k, _ := h.KindOf(v)
		fmt.Fprintf(sb, "<%v", k)
		if k == obj.KVector {
			fmt.Fprintf(sb, ":%d", h.VectorLength(v))
			for i := 0; i < h.VectorLength(v) && i < 3; i++ {
				sb.WriteByte(' ')
				describeValue(sb, h, h.VectorRef(v, i), depth-1)
			}
		} else if k == obj.KString {
			fmt.Fprintf(sb, ":%s", h.StringValue(v))
		} else if k == obj.KBox {
			sb.WriteByte(' ')
			describeValue(sb, h, h.Unbox(v), depth-1)
		}
		sb.WriteString(">")
	}
}
