package heap

import (
	"fmt"
	"testing"

	"repro/internal/obj"
	"repro/internal/seg"
)

// Tests for the header accessors' one segment-table lookup per object:
// fields read from the window the header lookup returned, the fall back
// for a large object's fields past its head segment, and the checks
// and panic messages the walk carries.

// TestAccessorsAcrossLargeObjectRun reads and writes the last field in
// a large object's head segment and the first in the next segment of
// its run, through every accessor that takes an index, before and after
// the object is tenured (the store then runs the write barrier on a
// continuation segment).
func TestAccessorsAcrossLargeObjectRun(t *testing.T) {
	h := NewDefault()
	const n = seg.Words + 100 // the run's second segment part full
	vec := h.NewRoot(h.MakeVector(n, obj.False))
	rec := h.NewRoot(h.MakeRecord(obj.True, n))
	bv := h.NewRoot(h.MakeBytevector(8 * n))
	// Vector element i is word 1+i, record field i word 2+i, byte i of
	// the bytevector in word 1+i/8; the head segment holds words up to
	// seg.Words-1.
	lastV, lastR, lastB := seg.Words-2, seg.Words-3, 8*(seg.Words-1)-1
	for _, c := range []struct {
		v     obj.Value
		field int
	}{{vec.Get(), 1 + lastV}, {rec.Get(), 2 + lastR}, {bv.Get(), 1 + lastB/8}} {
		head := seg.SegIndexOf(c.v.Addr())
		if seg.Offset(c.v.Addr()) != 0 || seg.SegIndexOf(c.v.Addr()+uint64(c.field)) != head ||
			seg.SegIndexOf(c.v.Addr()+uint64(c.field)+1) != head+1 {
			t.Fatalf("field %d of %v does not end the head segment", c.field, c.v)
		}
	}
	check := func(stage string, young obj.Value) {
		t.Helper()
		for _, i := range []int{lastV, lastV + 1} {
			h.VectorSet(vec.Get(), i, h.Cons(fix(i), young))
		}
		for _, i := range []int{lastR, lastR + 1} {
			h.RecordSet(rec.Get(), i, h.Cons(fix(-i), young))
		}
		for _, i := range []int{lastB, lastB + 1} {
			h.ByteSet(bv.Get(), i, byte(i))
		}
		h.Collect(0) // the pairs survive only through the stores
		for _, i := range []int{lastV, lastV + 1} {
			if got := h.VectorRef(vec.Get(), i); !got.IsPair() || h.Car(got) != fix(i) {
				t.Errorf("%s: vector-ref %d = %v", stage, i, got)
			}
			w := h.VectorWords(vec.Get(), i)
			if want := min(n-i, seg.Words-seg.Offset(vec.Get().Addr()+1+uint64(i))); len(w) != want ||
				obj.Value(w[0]) != h.VectorRef(vec.Get(), i) {
				t.Errorf("%s: vector-words %d: %d words from %v, want %d from the element",
					stage, i, len(w), obj.Value(w[0]), want)
			}
		}
		for _, i := range []int{lastR, lastR + 1} {
			if got := h.RecordRef(rec.Get(), i); !got.IsPair() || h.Car(got) != fix(-i) {
				t.Errorf("%s: record-ref %d = %v", stage, i, got)
			}
		}
		b := h.BytevectorBytes(bv.Get())
		for _, i := range []int{lastB, lastB + 1} {
			if got := h.ByteRef(bv.Get(), i); got != byte(i) || b[i] != byte(i) {
				t.Errorf("%s: byte %d reads %d, bytes %d, want %d", stage, i, got, b[i], byte(i))
			}
		}
		if h.VectorLength(vec.Get()) != n || h.RecordLength(rec.Get()) != n ||
			h.RecordRTD(rec.Get()) != obj.True || h.BytevectorLength(bv.Get()) != 8*n {
			t.Errorf("%s: lengths or rtd changed", stage)
		}
	}
	check("young", obj.Nil)
	h.Collect(1) // tenure the three objects
	if si := seg.SegIndexOf(vec.Get().Addr() + 1 + uint64(lastV+1)); h.tab.Info(si).Gen() == 0 || !h.tab.Seg(si).Cont {
		t.Fatalf("vector's second segment: gen %d cont %v, want tenured continuation", h.tab.Info(si).Gen(), h.tab.Seg(si).Cont)
	}
	check("tenured", h.Cons(obj.True, obj.Nil))
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAccessorPanicsUnchanged holds every header accessor's wrong-kind
// panic, and the index checks, to their messages: the one-walk helper
// must say exactly what the per-word path said.
func TestAccessorPanicsUnchanged(t *testing.T) {
	h := NewDefault()
	name := h.MakeString("s")
	sym := h.MakeSymbol(name)
	vec := h.MakeVector(3, obj.Nil)
	rec := h.MakeRecord(sym, 2)
	bv := h.MakeBytevector(5)
	port := h.MakePort(0, 1, bv)
	wrong := func(op string, k obj.Kind, v obj.Value) string {
		return fmt.Sprintf("heap: %s: not a %v: %v", op, k, v)
	}
	bad := func(op string, i, n int) string {
		return fmt.Sprintf("heap: %s: index %d out of range [0,%d)", op, i, n)
	}
	cases := []struct {
		want string
		fn   func()
	}{
		{wrong("vector-length", obj.KVector, rec), func() { h.VectorLength(rec) }},
		{wrong("vector-ref", obj.KVector, fix(3)), func() { h.VectorRef(fix(3), 0) }},
		{wrong("vector-words", obj.KVector, sym), func() { h.VectorWords(sym, 0) }},
		{wrong("vector-set!", obj.KVector, obj.Nil), func() { h.VectorSet(obj.Nil, 0, obj.Nil) }},
		{wrong("string-value", obj.KString, bv), func() { h.StringValue(bv) }},
		{wrong("string-length", obj.KString, sym), func() { h.StringLength(sym) }},
		{wrong("bytevector-length", obj.KBytevector, name), func() { h.BytevectorLength(name) }},
		{wrong("bytevector-ref", obj.KBytevector, vec), func() { h.ByteRef(vec, 0) }},
		{wrong("bytevector-set!", obj.KBytevector, vec), func() { h.ByteSet(vec, 0, 1) }},
		{wrong("bytevector-bytes", obj.KBytevector, name), func() { h.BytevectorBytes(name) }},
		{wrong("flonum-value", obj.KFlonum, bv), func() { h.FlonumValue(bv) }},
		{wrong("symbol-name", obj.KSymbol, name), func() { h.SymbolName(name) }},
		{wrong("symbol-name", obj.KSymbol, name), func() { h.SymbolString(name) }},
		{wrong("symbol-value", obj.KSymbol, vec), func() { h.SymbolValue(vec) }},
		{wrong("set-symbol-value!", obj.KSymbol, vec), func() { h.SetSymbolValue(vec, obj.Nil) }},
		{wrong("symbol-plist", obj.KSymbol, rec), func() { h.SymbolPlist(rec) }},
		{wrong("set-symbol-plist!", obj.KSymbol, rec), func() { h.SetSymbolPlist(rec, obj.Nil) }},
		{wrong("unbox", obj.KBox, vec), func() { h.Unbox(vec) }},
		{wrong("set-box!", obj.KBox, vec), func() { h.SetBox(vec, vec) }},
		{wrong("port-field", obj.KPort, rec), func() { h.PortField(rec, 0) }},
		{wrong("set-port-field!", obj.KPort, rec), func() { h.SetPortField(rec, 0, obj.Nil) }},
		{wrong("record-rtd", obj.KRecord, vec), func() { h.RecordRTD(vec) }},
		{wrong("record-length", obj.KRecord, vec), func() { h.RecordLength(vec) }},
		{wrong("record-ref", obj.KRecord, vec), func() { h.RecordRef(vec, 0) }},
		{wrong("record-set!", obj.KRecord, vec), func() { h.RecordSet(vec, 0, obj.Nil) }},
		{bad("vector-ref", 3, 3), func() { h.VectorRef(vec, 3) }},
		{bad("vector-ref", -1, 3), func() { h.VectorRef(vec, -1) }},
		{bad("vector-words", 4, 3), func() { h.VectorWords(vec, 4) }},
		{bad("vector-set!", 3, 3), func() { h.VectorSet(vec, 3, obj.Nil) }},
		{bad("bytevector-ref", 5, 5), func() { h.ByteRef(bv, 5) }},
		{bad("bytevector-set!", -1, 5), func() { h.ByteSet(bv, -1, 0) }},
		{bad("record-ref", 2, 2), func() { h.RecordRef(rec, 2) }},
		{bad("record-set!", -1, 2), func() { h.RecordSet(rec, -1, obj.Nil) }},
		{"heap: port-field: bad index 6", func() { h.PortField(port, 6) }},
		{"heap: set-port-field!: bad index -1", func() { h.SetPortField(port, -1, obj.Nil) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != c.want {
					t.Errorf("panic %q, want %q", msg, c.want)
				}
			}()
			c.fn()
		}()
	}
	if got := h.VectorWords(vec, 3); got != nil {
		t.Errorf("vector-words at the length = %v, want nil", got)
	}
}

// TestObjectWords reads kinds and payloads in place, clipped to the
// object, and reports a non-object or a pair as no object at all.
func TestObjectWords(t *testing.T) {
	h := NewDefault()
	sym := h.MakeSymbol(h.MakeString("name"))
	box := h.MakeBox(sym)
	str := h.MakeString("twelve bytes")
	big := h.MakeVector(seg.Words+5, fix(1))
	for _, c := range []struct {
		v    obj.Value
		kind obj.Kind
		n    int
	}{
		{box, obj.KBox, 1},
		{sym, obj.KSymbol, 3},
		{str, obj.KString, 2},
		{big, obj.KVector, seg.Words - 1},
	} {
		k, p, ok := h.ObjectWords(c.v)
		if !ok || k != c.kind || len(p) != c.n {
			t.Errorf("ObjectWords(%v) = %v, %d words, %v; want %v, %d words", c.v, k, len(p), ok, c.kind, c.n)
		}
	}
	if _, p, _ := h.ObjectWords(box); obj.Value(p[0]) != sym {
		t.Errorf("box payload %v", p)
	}
	for _, v := range []obj.Value{fix(1), obj.Nil, obj.FromPrim(9), h.Cons(obj.Nil, obj.Nil)} {
		if _, _, ok := h.ObjectWords(v); ok {
			t.Errorf("ObjectWords(%v) reports an object", v)
		}
	}
}
