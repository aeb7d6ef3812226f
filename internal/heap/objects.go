package heap

import (
	"fmt"
	"math"

	"repro/internal/obj"
	"repro/internal/seg"
)

// This file defines constructors and accessors for every heap object
// kind. Accessors panic on kind or bounds violations, in the manner of
// out-of-range slice indexing: misuse is a programmer error, not a
// recoverable condition. The scheme package converts such panics into
// Scheme errors at its evaluation boundary.

func (h *Heap) check(cond bool, format string, args ...any) {
	if !cond {
		panic(fmt.Sprintf("heap: "+format, args...))
	}
}

// badPair reports a non-pair argument to a pair accessor. It is kept
// out of line (and out of the accessors' bodies) so that the fast
// path of Car/Cdr/SetCar/SetCdr performs no variadic boxing: h.check
// builds its []any argument even when the condition holds, which put
// an allocation on the write barrier — the mutator's hottest path.
// TestCollectSteadyStateAllocs guards the allocation-free property.
//
//go:noinline
func (h *Heap) badPair(op string, v obj.Value) {
	panic(fmt.Sprintf("heap: %s: not a pair: %v", op, v))
}

// noHeader reports an object pointer to a non-header word; out of
// line like badPair, because h.check would box addr for every object
// the collector copies.
//
//go:noinline
func (h *Heap) noHeader(op string, addr uint64) {
	panic(fmt.Sprintf("heap: %s: object without header at %d", op, addr))
}

// badKind, badIndex, badPortField and negLength are the out-of-line
// halves of the header accessors' checks, for the same reason: the
// Scheme VM calls SymbolValue, VectorRef or RecordRef thousands of
// times a request, and h.check boxed their operands on every one.

//go:noinline
func (h *Heap) badKind(op string, k obj.Kind, v obj.Value) {
	panic(fmt.Sprintf("heap: %s: not a %v: %v", op, k, v))
}

//go:noinline
func (h *Heap) badIndex(op string, i, n int) {
	panic(fmt.Sprintf("heap: %s: index %d out of range [0,%d)", op, i, n))
}

//go:noinline
func (h *Heap) badPortField(op string, i int) {
	panic(fmt.Sprintf("heap: %s: bad index %d", op, i))
}

//go:noinline
func (h *Heap) negLength(op string, n int) {
	panic(fmt.Sprintf("heap: %s: negative length %d", op, n))
}

// --- Pairs -----------------------------------------------------------

// Constructors fill a fresh object through the window its allocation
// returned. New objects need no write barrier: nothing in an older
// generation can point at them yet.

// Cons allocates an ordinary pair in generation 0.
func (h *Heap) Cons(car, cdr obj.Value) obj.Value { return h.pair(seg.SpacePair, car, cdr) }

// WeakCons allocates a weak pair: its car is a weak pointer, broken to
// #f by the collector when the car's referent becomes inaccessible
// (and is not saved by a guardian). The cdr is an ordinary pointer.
func (h *Heap) WeakCons(car, cdr obj.Value) obj.Value { return h.pair(seg.SpaceWeak, car, cdr) }

// pair allocates a pair in space's generation-0 segment: allocWords's
// bump, inline, storing through the cursor's words. A closed or full
// cursor takes allocWordsSlow. It is a second bump path because
// allocWords does not inline into Cons, and the call is about a third
// of a cons (BenchmarkCons).
func (h *Heap) pair(space seg.Space, car, cdr obj.Value) obj.Value {
	if h.allocForbidden {
		allocWhileForbidden()
	}
	c := &h.cur[space][0]
	off := uint(c.off)
	if off > seg.Words-2 {
		addr, w := h.allocWordsSlow(space, 0, 2)
		w[0], w[1] = uint64(car), uint64(cdr)
		return obj.PairAt(addr)
	}
	c.w[off], c.w[off+1] = uint64(car), uint64(cdr)
	c.off = int32(off) + 2
	c.s.Fill = int(off) + 2
	h.Stats.WordsAllocated += 2
	return obj.PairAt(seg.BaseAddr(int(c.seg)) + uint64(off))
}

// IsWeakPair reports whether v is a pair allocated in the weak-pair
// space. Weak pairs answer true to IsPair as well, matching the paper:
// they are manipulated with the normal list operations.
func (h *Heap) IsWeakPair(v obj.Value) bool {
	return v.IsPair() && h.tab.Info(seg.SegIndexOf(v.Addr())).Space() == seg.SpaceWeak
}

// Car returns the car of a pair (ordinary or weak).
func (h *Heap) Car(p obj.Value) obj.Value {
	if !p.IsPair() {
		h.badPair("car", p)
	}
	return h.valueAt(p.Addr())
}

// Cdr returns the cdr of a pair.
func (h *Heap) Cdr(p obj.Value) obj.Value {
	if !p.IsPair() {
		h.badPair("cdr", p)
	}
	return h.valueAt(p.Addr() + 1)
}

// SetCar stores v in the car of a pair, with the write barrier. For a
// weak pair the cell remains a weak pointer.
func (h *Heap) SetCar(p, v obj.Value) {
	if !p.IsPair() {
		h.badPair("set-car!", p)
	}
	h.writeCell(p.Addr(), v)
}

// SetCdr stores v in the cdr of a pair, with the write barrier.
func (h *Heap) SetCdr(p, v obj.Value) {
	if !p.IsPair() {
		h.badPair("set-cdr!", p)
	}
	h.writeCell(p.Addr()+1, v)
}

// List builds a proper list of the given values.
func (h *Heap) List(vs ...obj.Value) obj.Value {
	out := obj.Nil
	for i := len(vs) - 1; i >= 0; i-- {
		out = h.Cons(vs[i], out)
	}
	return out
}

// ListLength returns the length of a proper list, or -1 if v is
// improper or cyclic within a large bound.
func (h *Heap) ListLength(v obj.Value) int {
	n := 0
	for v.IsPair() {
		v = h.Cdr(v)
		n++
		if n > 1<<30 {
			return -1
		}
	}
	if v != obj.Nil {
		return -1
	}
	return n
}

// --- Generic object helpers ------------------------------------------

// objSpace is the space objects of the given kind are allocated in.
func objSpace(kind obj.Kind) seg.Space {
	if kind.HasPointers() {
		return seg.SpaceObj
	}
	return seg.SpaceData
}

// allocObj allocates a header-prefixed object and returns its address
// and payload window: the words after the header (of a large object,
// those in its head segment; fillWords and fillBytes carry on).
func (h *Heap) allocObj(kind obj.Kind, length, payloadWords int, gen int) (uint64, []uint64) {
	addr, w := h.allocWords(objSpace(kind), gen, 1+payloadWords)
	return addr, h.putHeader(addr, w, kind, length)
}

// putHeader writes a fresh object's header through its window w (nil
// for a large object: looked up) and returns the payload window.
func (h *Heap) putHeader(addr uint64, w []uint64, kind obj.Kind, length int) []uint64 {
	if w == nil {
		w = h.window(addr, seg.Words)
	}
	w[0] = obj.MakeHeader(kind, length)
	return w[1:]
}

// fillWords stores v in the n payload words at addr; p is their
// leading window, all of them unless the object is large.
func (h *Heap) fillWords(addr uint64, p []uint64, n int, v obj.Value) {
	for {
		for i := range p {
			p[i] = uint64(v)
		}
		if n -= len(p); n == 0 {
			return
		}
		addr += uint64(len(p))
		p = h.window(addr, n)
	}
}

// KindOf returns the kind of a header-prefixed heap object.
func (h *Heap) KindOf(v obj.Value) (obj.Kind, bool) {
	k, _, ok := h.ObjectWords(v)
	return k, ok
}

// IsKind reports whether v is a heap object of kind k.
func (h *Heap) IsKind(v obj.Value, k obj.Kind) bool {
	got, ok := h.KindOf(v)
	return ok && got == k
}

// ObjectWords returns the kind of header-prefixed object v and its
// payload words (those after the header), read in place: up to the end
// of the payload, and no further than the end of the header's segment
// — only a large object's payload runs on past it. ok is false when v
// is not such an object. It is for a reader that takes several fields
// of one object at once, the VM dispatching a call; the slice follows
// VectorWords' rules: never written through, valid only while Epoch is
// unchanged.
func (h *Heap) ObjectWords(v obj.Value) (kind obj.Kind, payload []uint64, ok bool) {
	if !v.IsObj() {
		return 0, nil, false
	}
	w := h.tab.Window(v.Addr())
	if !obj.IsHeader(w[0]) {
		return 0, nil, false
	}
	kind = obj.HeaderKind(w[0])
	n := obj.PayloadWords(kind, obj.HeaderLength(w[0]))
	return kind, w[1:min(len(w), 1+n)], true
}

// object is the header accessors' one segment-table lookup (§4: the
// collector, too, reads the table once per object): it checks that v is
// an object of kind k and returns its words from the header on, to the
// end of the header's segment. A small object lies wholly in that
// window; a large one's later fields are read through fieldAt.
func (h *Heap) object(v obj.Value, k obj.Kind, op string) []uint64 {
	if v.IsObj() {
		if w := h.tab.Window(v.Addr()); obj.IsHeader(w[0]) && obj.HeaderKind(w[0]) == k {
			return w
		}
	}
	h.badKind(op, k, v)
	return nil
}

// fieldAt returns word i (the header is word 0) of the object at
// address v.Addr() whose window from object is w: from w unless the
// word lies past the end of the header's segment.
func (h *Heap) fieldAt(v obj.Value, w []uint64, i int) obj.Value {
	if i < len(w) {
		return obj.Value(w[i])
	}
	return h.valueAt(v.Addr() + uint64(i))
}

// --- Vectors ----------------------------------------------------------

// MakeVector allocates a vector of n elements, each initialized to
// fill, in generation 0.
func (h *Heap) MakeVector(n int, fill obj.Value) obj.Value {
	if n < 0 {
		h.negLength("make-vector", n)
	}
	addr, p := h.allocObj(obj.KVector, n, n, 0)
	h.fillWords(addr+1, p, n, fill)
	return obj.ObjAt(addr)
}

// Vector builds a vector from the given values.
func (h *Heap) Vector(vs ...obj.Value) obj.Value {
	addr, p := h.allocObj(obj.KVector, len(vs), len(vs), 0)
	for a := addr + 1; ; p = h.window(a, len(vs)) {
		for i := range p {
			p[i] = uint64(vs[i])
		}
		if vs = vs[len(p):]; len(vs) == 0 {
			return obj.ObjAt(addr)
		}
		a += uint64(len(p))
	}
}

// VectorLength returns the element count of a vector.
func (h *Heap) VectorLength(v obj.Value) int {
	return obj.HeaderLength(h.object(v, obj.KVector, "vector-length")[0])
}

// VectorRef returns element i of a vector.
func (h *Heap) VectorRef(v obj.Value, i int) obj.Value {
	w := h.object(v, obj.KVector, "vector-ref")
	n := obj.HeaderLength(w[0])
	if i < 0 || i >= n {
		h.badIndex("vector-ref", i, n)
	}
	return h.fieldAt(v, w, 1+i)
}

// VectorWords returns the elements of vector v from element i on, as
// the words of their Values, read in place: up to the end of the
// vector, and no further than the end of element i's segment (a large
// vector runs on into the next segment of its run; ask again from
// there). It is for a reader that walks many elements between two
// collections — the VM fetching instructions. The slice aliases heap
// storage, possibly a template's: it must not be written through (that
// would bypass the write barrier and copy-on-write), and it is valid
// only while Epoch is unchanged — the next collection may move v, and a
// copy-on-write privatization gives its segment new storage.
func (h *Heap) VectorWords(v obj.Value, i int) []uint64 {
	w := h.object(v, obj.KVector, "vector-words")
	n := obj.HeaderLength(w[0])
	if i < 0 || i > n {
		h.badIndex("vector-words", i, n)
	}
	if i == n {
		return nil
	}
	if 1+i < len(w) {
		return w[1+i : min(len(w), 1+n)]
	}
	w = h.tab.Window(v.Addr() + 1 + uint64(i))
	return w[:min(len(w), n-i)]
}

// VectorSet stores x as element i of a vector, with the write barrier.
func (h *Heap) VectorSet(v obj.Value, i int, x obj.Value) {
	n := obj.HeaderLength(h.object(v, obj.KVector, "vector-set!")[0])
	if i < 0 || i >= n {
		h.badIndex("vector-set!", i, n)
	}
	h.writeCell(v.Addr()+1+uint64(i), x)
}

// --- Strings and bytevectors -------------------------------------------

// fillBytes packs b into the payload words at addr, little-endian
// within each word (each stored whole); p as for fillWords.
func (h *Heap) fillBytes(addr uint64, p []uint64, b []byte) {
	for {
		for i := range p {
			var w uint64
			for j, c := range b[:min(8, len(b))] {
				w |= uint64(c) << (8 * j)
			}
			p[i], b = w, b[min(8, len(b)):]
		}
		if len(b) == 0 {
			return
		}
		addr += uint64(len(p))
		p = h.window(addr, (len(b)+7)/8)
	}
}

func (h *Heap) makeBytes(kind obj.Kind, b []byte) obj.Value {
	addr, p := h.allocObj(kind, len(b), (len(b)+7)/8, 0)
	h.fillBytes(addr+1, p, b)
	return obj.ObjAt(addr)
}

func (h *Heap) bytesOf(v obj.Value, kind obj.Kind, op string) []byte {
	o := h.object(v, kind, op)
	out := make([]byte, obj.HeaderLength(o[0]))
	for i, p := 0, o[1:]; i < len(out); p = h.tab.Window(v.Addr() + 1 + uint64(i/8)) {
		for _, w := range p[:min(len(p), (len(out)-i+7)/8)] {
			for j := 0; j < 8 && i < len(out); j++ {
				out[i] = byte(w >> (8 * j))
				i++
			}
		}
	}
	return out
}

// MakeString allocates an immutable string holding s.
func (h *Heap) MakeString(s string) obj.Value { return h.makeBytes(obj.KString, []byte(s)) }

// StringValue returns the Go string held by a string object.
func (h *Heap) StringValue(v obj.Value) string {
	return string(h.bytesOf(v, obj.KString, "string-value"))
}

// StringLength returns the byte length of a string object.
func (h *Heap) StringLength(v obj.Value) int {
	return obj.HeaderLength(h.object(v, obj.KString, "string-length")[0])
}

// MakeBytevector allocates a zero-filled bytevector of n bytes.
func (h *Heap) MakeBytevector(n int) obj.Value {
	if n < 0 {
		h.negLength("make-bytevector", n)
	}
	return h.makeBytes(obj.KBytevector, make([]byte, n))
}

// BytevectorLength returns the byte length of a bytevector.
func (h *Heap) BytevectorLength(v obj.Value) int {
	return obj.HeaderLength(h.object(v, obj.KBytevector, "bytevector-length")[0])
}

// ByteRef returns byte i of a bytevector.
func (h *Heap) ByteRef(v obj.Value, i int) byte {
	w := h.object(v, obj.KBytevector, "bytevector-ref")
	n := obj.HeaderLength(w[0])
	if i < 0 || i >= n {
		h.badIndex("bytevector-ref", i, n)
	}
	return byte(h.fieldAt(v, w, 1+i/8) >> (uint(i%8) * 8))
}

// ByteSet stores c at byte i of a bytevector. Bytevectors hold no
// pointers, so no write barrier is needed.
func (h *Heap) ByteSet(v obj.Value, i int, c byte) {
	o := h.object(v, obj.KBytevector, "bytevector-set!")
	n := obj.HeaderLength(o[0])
	if i < 0 || i >= n {
		h.badIndex("bytevector-set!", i, n)
	}
	sh := uint(i%8) * 8
	old := uint64(h.fieldAt(v, o, 1+i/8))
	h.setWord(v.Addr()+1+uint64(i/8), old&^(0xff<<sh)|uint64(c)<<sh)
}

// BytevectorBytes returns a copy of the bytevector's contents.
func (h *Heap) BytevectorBytes(v obj.Value) []byte {
	return h.bytesOf(v, obj.KBytevector, "bytevector-bytes")
}

// --- Flonums ------------------------------------------------------------

// MakeFlonum allocates a boxed float64 in the data space.
func (h *Heap) MakeFlonum(f float64) obj.Value {
	addr, p := h.allocObj(obj.KFlonum, 1, 1, 0)
	p[0] = math.Float64bits(f)
	return obj.ObjAt(addr)
}

// FlonumValue returns the float64 held by a flonum.
func (h *Heap) FlonumValue(v obj.Value) float64 {
	return math.Float64frombits(h.object(v, obj.KFlonum, "flonum-value")[1])
}

// --- Symbols -------------------------------------------------------------

// Symbol payload layout: [0] name string, [1] global value, [2] plist.

// MakeSymbol allocates an uninterned symbol whose print name is the
// string object name. Interning is the scheme package's concern.
func (h *Heap) MakeSymbol(name obj.Value) obj.Value {
	h.check(h.IsKind(name, obj.KString), "make-symbol: name must be a string")
	addr, p := h.allocObj(obj.KSymbol, 3, 3, 0)
	p[0], p[1], p[2] = uint64(name), uint64(obj.Unbound), uint64(obj.Nil)
	return obj.ObjAt(addr)
}

// SymbolName returns a symbol's print-name string object.
func (h *Heap) SymbolName(v obj.Value) obj.Value {
	return obj.Value(h.object(v, obj.KSymbol, "symbol-name")[1])
}

// SymbolString returns a symbol's print name as a Go string.
func (h *Heap) SymbolString(v obj.Value) string {
	return h.StringValue(h.SymbolName(v))
}

// SymbolValue returns a symbol's global binding, obj.Unbound if none.
func (h *Heap) SymbolValue(v obj.Value) obj.Value {
	return obj.Value(h.object(v, obj.KSymbol, "symbol-value")[2])
}

// SetSymbolValue stores a symbol's global binding.
func (h *Heap) SetSymbolValue(v, x obj.Value) {
	h.object(v, obj.KSymbol, "set-symbol-value!")
	h.writeCell(v.Addr()+2, x)
}

// PeekSymbol returns a symbol's global value and property list, even
// in the middle of a collection when the symbol may already have been
// forwarded (its old header overwritten by a forwarding word). Root
// visitors that implement weak symbol tables use it to decide whether
// a symbol carries state that must keep it interned. The returned
// values may be stale (pre-collection) pointers and must only be
// compared against immediates.
func (h *Heap) PeekSymbol(v obj.Value) (value, plist obj.Value, ok bool) {
	if !v.IsObj() {
		return obj.Void, obj.Void, false
	}
	addr := v.Addr()
	w := h.word(addr)
	if obj.IsFwd(w) {
		addr = obj.FwdAddr(w)
		w = h.word(addr)
	}
	if !obj.IsHeader(w) || obj.HeaderKind(w) != obj.KSymbol {
		return obj.Void, obj.Void, false
	}
	return h.valueAt(addr + 2), h.valueAt(addr + 3), true
}

// SymbolPlist returns a symbol's property list.
func (h *Heap) SymbolPlist(v obj.Value) obj.Value {
	return obj.Value(h.object(v, obj.KSymbol, "symbol-plist")[3])
}

// SetSymbolPlist stores a symbol's property list.
func (h *Heap) SetSymbolPlist(v, x obj.Value) {
	h.object(v, obj.KSymbol, "set-symbol-plist!")
	h.writeCell(v.Addr()+3, x)
}

// --- Boxes --------------------------------------------------------------------

// MakeBox allocates a one-cell box holding v.
func (h *Heap) MakeBox(v obj.Value) obj.Value {
	addr, p := h.allocObj(obj.KBox, 1, 1, 0)
	p[0] = uint64(v)
	return obj.ObjAt(addr)
}

// Unbox returns a box's contents.
func (h *Heap) Unbox(v obj.Value) obj.Value {
	return obj.Value(h.object(v, obj.KBox, "unbox")[1])
}

// SetBox stores x into a box, with the write barrier.
func (h *Heap) SetBox(v, x obj.Value) {
	h.object(v, obj.KBox, "set-box!")
	h.writeCell(v.Addr()+1, x)
}

// --- Ports ---------------------------------------------------------------------

// Port payload layout: [0] flags fixnum, [1] file id fixnum,
// [2] buffer bytevector, [3] index fixnum, [4] limit fixnum,
// [5] open flag (#t/#f). Field semantics belong to package ports.

// Port field indices for PortField/SetPortField.
const (
	PortFlags = iota
	PortFileID
	PortBuffer
	PortIndex
	PortLimit
	PortOpen
	portFields
)

// MakePort allocates a port object with the given fields.
func (h *Heap) MakePort(flags, fileID int64, buffer obj.Value) obj.Value {
	addr, p := h.allocObj(obj.KPort, portFields, portFields, 0)
	p[PortFlags], p[PortFileID] = uint64(obj.FromFixnum(flags)), uint64(obj.FromFixnum(fileID))
	p[PortBuffer], p[PortOpen] = uint64(buffer), uint64(obj.True)
	p[PortIndex], p[PortLimit] = uint64(obj.FromFixnum(0)), uint64(obj.FromFixnum(0))
	return obj.ObjAt(addr)
}

// PortField returns field i of a port.
func (h *Heap) PortField(v obj.Value, i int) obj.Value {
	w := h.object(v, obj.KPort, "port-field")
	if i < 0 || i >= portFields {
		h.badPortField("port-field", i)
	}
	return obj.Value(w[1+i])
}

// SetPortField stores x as field i of a port.
func (h *Heap) SetPortField(v obj.Value, i int, x obj.Value) {
	h.object(v, obj.KPort, "set-port-field!")
	if i < 0 || i >= portFields {
		h.badPortField("set-port-field!", i)
	}
	h.writeCell(v.Addr()+1+uint64(i), x)
}

// --- Records -----------------------------------------------------------------

// Record payload layout: [0] type descriptor, [1..] fields.

// MakeRecord allocates a record with the given type descriptor and
// field count, fields initialized to #f.
func (h *Heap) MakeRecord(rtd obj.Value, nfields int) obj.Value {
	h.check(nfields >= 0, "make-record: negative field count")
	addr, p := h.allocObj(obj.KRecord, 1+nfields, 1+nfields, 0)
	p[0] = uint64(rtd)
	h.fillWords(addr+2, p[1:], nfields, obj.False)
	return obj.ObjAt(addr)
}

// RecordRTD returns a record's type descriptor.
func (h *Heap) RecordRTD(v obj.Value) obj.Value {
	return obj.Value(h.object(v, obj.KRecord, "record-rtd")[1])
}

// RecordLength returns a record's field count.
func (h *Heap) RecordLength(v obj.Value) int {
	return obj.HeaderLength(h.object(v, obj.KRecord, "record-length")[0]) - 1
}

// RecordRef returns field i of a record.
func (h *Heap) RecordRef(v obj.Value, i int) obj.Value {
	w := h.object(v, obj.KRecord, "record-ref")
	n := obj.HeaderLength(w[0]) - 1
	if i < 0 || i >= n {
		h.badIndex("record-ref", i, n)
	}
	return h.fieldAt(v, w, 2+i)
}

// RecordSet stores x as field i of a record, with the write barrier.
func (h *Heap) RecordSet(v obj.Value, i int, x obj.Value) {
	n := obj.HeaderLength(h.object(v, obj.KRecord, "record-set!")[0]) - 1
	if i < 0 || i >= n {
		h.badIndex("record-set!", i, n)
	}
	h.writeCell(v.Addr()+2+uint64(i), x)
}
