package heap_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

func newHeap(t *testing.T) *heap.Heap {
	t.Helper()
	return heap.NewDefault()
}

func TestFixnumRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 42, -42, obj.FixnumMax, obj.FixnumMin} {
		v := obj.FromFixnum(n)
		if !v.IsFixnum() {
			t.Fatalf("FromFixnum(%d) not a fixnum", n)
		}
		if got := v.FixnumValue(); got != n {
			t.Errorf("fixnum %d round-tripped to %d", n, got)
		}
	}
}

func TestCharRoundTrip(t *testing.T) {
	for _, r := range []rune{'a', 'Z', '0', ' ', '\n', 'λ', '日'} {
		v := obj.FromChar(r)
		if !v.IsChar() {
			t.Fatalf("FromChar(%q) not a char", r)
		}
		if got := v.CharValue(); got != r {
			t.Errorf("char %q round-tripped to %q", r, got)
		}
	}
}

func TestImmediatesDistinct(t *testing.T) {
	vals := []obj.Value{obj.False, obj.True, obj.Nil, obj.EOF, obj.Void, obj.Unbound, obj.FromFixnum(0)}
	for i, a := range vals {
		for j, b := range vals {
			if (i == j) != (a == b) {
				t.Errorf("immediates %d and %d compare wrongly", i, j)
			}
		}
	}
	if obj.True.IsFalse() || !obj.False.IsFalse() {
		t.Error("IsFalse wrong")
	}
	if !obj.Nil.IsTruthy() {
		t.Error("'() should be truthy in Scheme")
	}
}

func TestConsCarCdr(t *testing.T) {
	h := newHeap(t)
	p := h.Cons(obj.FromFixnum(1), obj.FromFixnum(2))
	if !p.IsPair() {
		t.Fatal("Cons did not return a pair")
	}
	if h.Car(p).FixnumValue() != 1 || h.Cdr(p).FixnumValue() != 2 {
		t.Fatal("car/cdr wrong")
	}
	h.SetCar(p, obj.FromFixnum(10))
	h.SetCdr(p, obj.Nil)
	if h.Car(p).FixnumValue() != 10 || h.Cdr(p) != obj.Nil {
		t.Fatal("set-car!/set-cdr! wrong")
	}
}

func TestListHelpers(t *testing.T) {
	h := newHeap(t)
	l := h.List(obj.FromFixnum(1), obj.FromFixnum(2), obj.FromFixnum(3))
	if n := h.ListLength(l); n != 3 {
		t.Fatalf("ListLength = %d, want 3", n)
	}
	if h.ListLength(obj.Nil) != 0 {
		t.Fatal("empty list length wrong")
	}
	improper := h.Cons(obj.FromFixnum(1), obj.FromFixnum(2))
	if h.ListLength(improper) != -1 {
		t.Fatal("improper list should report -1")
	}
}

func TestWeakConsIsPair(t *testing.T) {
	h := newHeap(t)
	w := h.WeakCons(obj.FromFixnum(7), obj.Nil)
	if !w.IsPair() {
		t.Fatal("weak pair must answer true to pair?")
	}
	if !h.IsWeakPair(w) {
		t.Fatal("IsWeakPair false for weak pair")
	}
	if h.IsWeakPair(h.Cons(obj.Nil, obj.Nil)) {
		t.Fatal("IsWeakPair true for ordinary pair")
	}
	if h.Car(w).FixnumValue() != 7 {
		t.Fatal("weak car wrong before collection")
	}
}

func TestVectorOps(t *testing.T) {
	h := newHeap(t)
	v := h.MakeVector(5, obj.FromFixnum(9))
	if h.VectorLength(v) != 5 {
		t.Fatal("vector length wrong")
	}
	for i := 0; i < 5; i++ {
		if h.VectorRef(v, i).FixnumValue() != 9 {
			t.Fatal("vector fill wrong")
		}
	}
	h.VectorSet(v, 2, obj.True)
	if h.VectorRef(v, 2) != obj.True {
		t.Fatal("vector-set! wrong")
	}
	v2 := h.Vector(obj.FromFixnum(1), obj.FromFixnum(2))
	if h.VectorRef(v2, 1).FixnumValue() != 2 {
		t.Fatal("Vector constructor wrong")
	}
}

func TestVectorBoundsPanics(t *testing.T) {
	h := newHeap(t)
	v := h.MakeVector(3, obj.Nil)
	for _, i := range []int{-1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("vector-ref index %d did not panic", i)
				}
			}()
			h.VectorRef(v, i)
		}()
	}
}

func TestStringRoundTrip(t *testing.T) {
	h := newHeap(t)
	for _, s := range []string{"", "a", "hello", "exactly8", "more than eight bytes", "日本語"} {
		v := h.MakeString(s)
		if got := h.StringValue(v); got != s {
			t.Errorf("string %q round-tripped to %q", s, got)
		}
		if h.StringLength(v) != len(s) {
			t.Errorf("string %q length wrong", s)
		}
	}
}

func TestBytevectorOps(t *testing.T) {
	h := newHeap(t)
	bv := h.MakeBytevector(10)
	if h.BytevectorLength(bv) != 10 {
		t.Fatal("bytevector length wrong")
	}
	for i := 0; i < 10; i++ {
		h.ByteSet(bv, i, byte(i*3))
	}
	for i := 0; i < 10; i++ {
		if h.ByteRef(bv, i) != byte(i*3) {
			t.Fatalf("byte %d wrong", i)
		}
	}
	b := h.BytevectorBytes(bv)
	if len(b) != 10 || b[9] != 27 {
		t.Fatal("BytevectorBytes wrong")
	}
}

func TestFlonum(t *testing.T) {
	h := newHeap(t)
	f := h.MakeFlonum(3.25)
	if h.FlonumValue(f) != 3.25 {
		t.Fatal("flonum round trip wrong")
	}
	if !h.Eqv(f, f) {
		t.Fatal("flonum not eqv to itself")
	}
	g := h.MakeFlonum(3.25)
	if !h.Eqv(f, g) {
		t.Fatal("equal flonums should be eqv")
	}
	if h.Eqv(f, h.MakeFlonum(4.5)) {
		t.Fatal("different flonums eqv")
	}
}

func TestSymbolFields(t *testing.T) {
	h := newHeap(t)
	name := h.MakeString("foo")
	s := h.MakeSymbol(name)
	if h.SymbolString(s) != "foo" {
		t.Fatal("symbol name wrong")
	}
	if h.SymbolValue(s) != obj.Unbound {
		t.Fatal("fresh symbol should be unbound")
	}
	h.SetSymbolValue(s, obj.FromFixnum(5))
	if h.SymbolValue(s).FixnumValue() != 5 {
		t.Fatal("symbol value wrong")
	}
	h.SetSymbolPlist(s, h.List(obj.True))
	if h.ListLength(h.SymbolPlist(s)) != 1 {
		t.Fatal("symbol plist wrong")
	}
}

func TestBoxOps(t *testing.T) {
	h := newHeap(t)
	b := h.MakeBox(obj.FromFixnum(1))
	if h.Unbox(b).FixnumValue() != 1 {
		t.Fatal("unbox wrong")
	}
	h.SetBox(b, obj.True)
	if h.Unbox(b) != obj.True {
		t.Fatal("set-box! wrong")
	}
}

func TestRecordOps(t *testing.T) {
	h := newHeap(t)
	rtd := h.MakeString("point")
	r := h.MakeRecord(rtd, 2)
	if h.RecordLength(r) != 2 {
		t.Fatal("record length wrong")
	}
	if h.StringValue(h.RecordRTD(r)) != "point" {
		t.Fatal("record rtd wrong")
	}
	h.RecordSet(r, 0, obj.FromFixnum(3))
	h.RecordSet(r, 1, obj.FromFixnum(4))
	if h.RecordRef(r, 0).FixnumValue() != 3 || h.RecordRef(r, 1).FixnumValue() != 4 {
		t.Fatal("record fields wrong")
	}
}

func TestLargeVector(t *testing.T) {
	h := newHeap(t)
	const n = 5000 // spans multiple segments
	v := h.MakeVector(n, obj.FromFixnum(0))
	for i := 0; i < n; i++ {
		h.VectorSet(v, i, obj.FromFixnum(int64(i)))
	}
	for i := 0; i < n; i++ {
		if h.VectorRef(v, i).FixnumValue() != int64(i) {
			t.Fatalf("large vector element %d wrong", i)
		}
	}
}

func TestRootBasics(t *testing.T) {
	h := newHeap(t)
	r := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	if h.Car(r.Get()).FixnumValue() != 1 {
		t.Fatal("root get wrong")
	}
	r.Set(obj.True)
	if r.Get() != obj.True {
		t.Fatal("root set wrong")
	}
	r.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("use after release did not panic")
			}
		}()
		r.Get()
	}()
}

func TestRootSlotReuse(t *testing.T) {
	h := newHeap(t)
	a := h.NewRoot(obj.FromFixnum(1))
	a.Release()
	b := h.NewRoot(obj.FromFixnum(2))
	if b.Get().FixnumValue() != 2 {
		t.Fatal("reused slot has wrong value")
	}
	b.Release()
}

func TestGenerationOfValues(t *testing.T) {
	h := newHeap(t)
	if h.Generation(obj.FromFixnum(1)) != -1 {
		t.Fatal("immediates have no generation")
	}
	p := h.Cons(obj.Nil, obj.Nil)
	if h.Generation(p) != 0 {
		t.Fatal("fresh pair should be in generation 0")
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
		{"parallel workers", func(c *heap.Config) { c.Workers = 2 }, "parallel collector was removed"},
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

// TestRootsAcrossChunks: root slots live in fixed chunks of a few
// slots. 150 roots span many chunks; released slots are reused before
// the registry grows; every live root is forwarded by collections and
// survives an image round trip at its index, with freed slots free.
func TestRootsAcrossChunks(t *testing.T) {
	const n = 150
	h := newHeap(t)
	roots := make([]*heap.Root, n)
	for i := range roots {
		roots[i] = h.NewRoot(h.Cons(obj.FromFixnum(int64(i)), obj.Nil))
	}
	for i := 0; i < n; i += 3 {
		roots[i].Release()
		roots[i] = nil
	}
	h.Collect(0)
	for i := 0; i < n; i += 3 {
		roots[i] = h.NewRoot(h.Cons(obj.FromFixnum(int64(i)), obj.Nil))
	}
	if _, ok := h.RootSlot(n); ok {
		t.Fatalf("the registry grew past %d slots with %d freed slots to reuse", n, n/3)
	}
	check := func(what string, get func(i int) (obj.Value, bool)) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, ok := get(i)
			if !ok || !v.IsPair() || h.Car(v).FixnumValue() != int64(i) {
				t.Fatalf("%s: root %d lost", what, i)
			}
		}
	}
	h.Collect(h.MaxGeneration())
	check("after collections", func(i int) (obj.Value, bool) { return roots[i].Get(), true })
	if errs := h.Verify(); len(errs) > 0 {
		t.Fatal(errs[0])
	}

	// Free a few more; through an image every slot comes back at its
	// index, live with its value or free.
	for i := 0; i < n; i += 7 {
		roots[i].Release()
	}
	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	h2, loaded, err := heap.LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for i, r := range loaded {
		want, ok := h.RootSlot(i)
		if !ok {
			t.Fatalf("slot %d missing from the saved heap", i)
		}
		if (r == nil) != (want == obj.False) {
			t.Fatalf("slot %d: live %v after load", i, r != nil)
		}
		if r != nil {
			live++
			if h2.Car(r.Get()).FixnumValue() != h.Car(want).FixnumValue() {
				t.Fatalf("slot %d: value changed across the image", i)
			}
		}
	}
	if wantLive := n - (n+6)/7; live != wantLive {
		t.Fatalf("%d live roots after load, want %d", live, wantLive)
	}
	if errs := h2.Verify(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	// The loaded heap reuses its free slots before growing.
	for i := 0; i < (n+6)/7; i++ {
		h2.NewRoot(obj.Nil)
	}
	if _, ok := h2.RootSlot(n); ok {
		t.Fatal("the loaded registry grew instead of reusing freed slots")
	}
}
