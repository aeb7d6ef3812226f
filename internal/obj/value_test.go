package obj

import (
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	f := func(kindRaw uint8, length uint32) bool {
		kind := Kind(kindRaw % uint8(NumKinds))
		w := MakeHeader(kind, int(length))
		return IsHeader(w) &&
			HeaderKind(w) == kind &&
			HeaderLength(w) == int(length) &&
			!IsFwd(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFwdRoundTrip(t *testing.T) {
	f := func(addr uint32) bool {
		w := MakeFwd(uint64(addr))
		return IsFwd(w) && FwdAddr(w) == uint64(addr) && !IsHeader(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixnumProperty(t *testing.T) {
	f := func(n int64) bool {
		n %= FixnumMax
		v := FromFixnum(n)
		return v.IsFixnum() && v.FixnumValue() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointerTagsRoundTrip(t *testing.T) {
	f := func(addr uint32) bool {
		p := PairAt(uint64(addr))
		o := ObjAt(uint64(addr))
		return p.IsPair() && !p.IsObj() && p.Addr() == uint64(addr) &&
			o.IsObj() && !o.IsPair() && o.Addr() == uint64(addr) &&
			p.IsPointer() && o.IsPointer() && !p.IsImmediate()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWithAddrPreservesTag(t *testing.T) {
	p := PairAt(100).WithAddr(200)
	if !p.IsPair() || p.Addr() != 200 {
		t.Fatal("WithAddr broke pair tag")
	}
	o := ObjAt(100).WithAddr(300)
	if !o.IsObj() || o.Addr() != 300 {
		t.Fatal("WithAddr broke obj tag")
	}
}

func TestPayloadWords(t *testing.T) {
	cases := []struct {
		kind Kind
		len  int
		want int
	}{
		{KVector, 5, 5},
		{KVector, 0, 0},
		{KString, 0, 0},
		{KString, 1, 1},
		{KString, 8, 1},
		{KString, 9, 2},
		{KBytevector, 16, 2},
		{KSymbol, 3, 3},
		{KFlonum, 1, 1},
	}
	for _, c := range cases {
		if got := PayloadWords(c.kind, c.len); got != c.want {
			t.Errorf("PayloadWords(%v,%d) = %d, want %d", c.kind, c.len, got, c.want)
		}
	}
}

func TestKindProperties(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	for _, k := range []Kind{KString, KBytevector, KFlonum} {
		if k.HasPointers() {
			t.Errorf("%v should be a data kind", k)
		}
	}
	for _, k := range []Kind{KVector, KSymbol, KPort, KBox, KRecord} {
		if !k.HasPointers() {
			t.Errorf("%v should be a pointer kind", k)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := map[Value]string{
		FromFixnum(42):  "42",
		FromFixnum(-1):  "-1",
		True:            "#t",
		False:           "#f",
		Nil:             "()",
		EOF:             "#<eof>",
		Void:            "#<void>",
		Unbound:         "#<unbound>",
		FromChar('x'):   "#\\x",
		FromBool(true):  "#t",
		FromBool(false): "#f",
		FromPrim(3):     "#<primitive 3>",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%x.String() = %q, want %q", uint64(v), got, want)
		}
	}
}

func TestPrimImmediate(t *testing.T) {
	for _, idx := range []int{0, 1, 135, 1 << 20} {
		v := FromPrim(idx)
		if !v.IsPrim() || !v.IsImmediate() || v.IsPointer() || v.IsChar() || v.IsFixnum() {
			t.Errorf("FromPrim(%d) = %x: wrong predicates", idx, uint64(v))
		}
		if got := v.PrimIndex(); got != idx {
			t.Errorf("FromPrim(%d).PrimIndex() = %d", idx, got)
		}
	}
	for _, v := range []Value{FromChar(0), FromChar('a'), True, False, Nil, EOF, Void, Unbound,
		FromFixnum(7), PairAt(8), ObjAt(8)} {
		if v.IsPrim() {
			t.Errorf("%v reads as a primitive", v)
		}
	}
	if FromPrim(1) == FromPrim(2) || FromPrim(1) != FromPrim(1) {
		t.Error("primitive immediates must be eq exactly when their indices are equal")
	}
}

func TestTruthiness(t *testing.T) {
	if False.IsTruthy() {
		t.Fatal("#f must be falsy")
	}
	for _, v := range []Value{True, Nil, FromFixnum(0), FromChar(0), Void} {
		if !v.IsTruthy() {
			t.Errorf("%v must be truthy", v)
		}
	}
}
