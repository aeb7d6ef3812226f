// Package obj defines the tagged value representation used by the
// simulated Scheme heap.
//
// A Value is a single 64-bit word. The low three bits carry the primary
// tag; the remaining bits carry an immediate payload or a word address
// into the segmented heap (see package seg). Two additional tags,
// TagHeader and TagFwd, appear only in heap words: TagHeader marks the
// first word of a multi-word heap object, and TagFwd overwrites the
// first word of an object that has been forwarded (copied) during a
// collection, exactly as in the paper's stop-and-copy collector.
package obj

import "fmt"

// Value is a tagged 64-bit Scheme value: a fixnum, an immediate
// constant, or a pointer (word address) into the simulated heap.
type Value uint64

// Primary tags (low three bits of a Value or heap word).
const (
	TagFixnum = 0 // signed integer, payload in the upper 61 bits
	TagPair   = 1 // pointer to a two-word pair (ordinary or weak)
	TagObj    = 2 // pointer to a header-prefixed heap object
	TagImm    = 3 // non-numeric immediate (booleans, chars, '(), ...)
	TagHeader = 4 // heap-only: object header word
	TagFwd    = 5 // heap-only: forwarding word left by the collector
)

const (
	tagBits = 3
	tagMask = (1 << tagBits) - 1
)

// Immediate subtags (bits 3..7 of a TagImm value).
const (
	immFalse = iota
	immTrue
	immNil
	immEOF
	immVoid
	immUnbound
	immChar
	immPrim
)

// The immediate constants.
const (
	False   Value = TagImm | immFalse<<tagBits
	True    Value = TagImm | immTrue<<tagBits
	Nil     Value = TagImm | immNil<<tagBits // the empty list '()
	EOF     Value = TagImm | immEOF<<tagBits
	Void    Value = TagImm | immVoid<<tagBits // the unspecified value
	Unbound Value = TagImm | immUnbound<<tagBits
)

// Kind identifies the layout of a header-prefixed heap object.
type Kind uint8

// Object kinds. Vector-like kinds hold Value words that the collector
// sweeps; data kinds (String, Bytevector, Flonum) hold raw bytes or
// float bits and live in the unswept data space.
const (
	KVector     Kind = iota // n Value elements
	KString                 // immutable byte string (data space)
	KBytevector             // mutable byte vector (data space)
	KFlonum                 // one word of float64 bits (data space)
	KSymbol                 // name string, global value, property list
	KBox                    // one Value cell
	KPort                   // flags, file id, buffer, index, limit, open
	KRecord                 // type descriptor followed by field Values
	NumKinds
)

var kindNames = [NumKinds]string{
	"vector", "string", "bytevector", "flonum", "symbol",
	"box", "port", "record",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// HasPointers reports whether objects of kind k contain Value words
// that the collector must sweep. Data kinds are placed in the data
// space, which the collector copies but never sweeps — one of the
// generation-friendly properties the benchmarks measure.
func (k Kind) HasPointers() bool {
	switch k {
	case KString, KBytevector, KFlonum:
		return false
	}
	return true
}

// Fixnum limits. Fixnums occupy 61 bits plus sign.
const (
	FixnumMax = int64(1)<<60 - 1
	FixnumMin = -int64(1) << 60
)

// FromFixnum returns the fixnum Value for n. n must lie in
// [FixnumMin, FixnumMax]; out-of-range values wrap silently, matching
// fixnum arithmetic in the modeled system.
func FromFixnum(n int64) Value { return Value(uint64(n) << tagBits) }

// FixnumValue returns the integer carried by a fixnum Value.
func (v Value) FixnumValue() int64 { return int64(v) >> tagBits }

// FromChar returns the character immediate for r.
func FromChar(r rune) Value {
	return TagImm | immChar<<tagBits | Value(uint64(uint32(r)))<<8
}

// CharValue returns the rune carried by a character immediate.
func (v Value) CharValue() rune { return rune(uint32(uint64(v) >> 8)) }

// FromPrim returns the primitive-procedure immediate for dispatch
// index idx. A primitive is not a heap object: the index is all it
// carries, so telling one apart and finding its entry takes a tag test
// and a shift, with no memory access.
func FromPrim(idx int) Value {
	return TagImm | immPrim<<tagBits | Value(uint64(uint32(idx)))<<8
}

// IsPrim reports whether v is a primitive-procedure immediate.
func (v Value) IsPrim() bool { return v&0xff == TagImm|immPrim<<tagBits }

// PrimIndex returns the dispatch index carried by a primitive immediate.
func (v Value) PrimIndex() int { return int(uint32(uint64(v) >> 8)) }

// FromBool returns True or False.
func FromBool(b bool) Value {
	if b {
		return True
	}
	return False
}

// Tag returns the primary tag of v.
func (v Value) Tag() int { return int(v & tagMask) }

// Predicates on the representation. Note that IsPair is true for both
// ordinary and weak pairs; weakness is a property of the segment the
// pair lives in, not of the pointer (paper §4: weak pairs are placed
// in a distinct weak-pair space).
func (v Value) IsFixnum() bool    { return v&tagMask == TagFixnum }
func (v Value) IsPair() bool      { return v&tagMask == TagPair }
func (v Value) IsObj() bool       { return v&tagMask == TagObj }
func (v Value) IsImmediate() bool { return v&tagMask == TagImm || v&tagMask == TagFixnum }
func (v Value) IsPointer() bool   { return v&tagMask == TagPair || v&tagMask == TagObj }
func (v Value) IsChar() bool      { return v&tagMask == TagImm && (v>>tagBits)&0x1f == immChar }
func (v Value) IsBool() bool      { return v == True || v == False }

// IsFalse reports whether v is #f, the sole false value in Scheme.
func (v Value) IsFalse() bool { return v == False }

// IsTruthy reports whether v counts as true in a conditional.
func (v Value) IsTruthy() bool { return v != False }

// Addr returns the heap word address carried by a pointer Value.
func (v Value) Addr() uint64 { return uint64(v) >> tagBits }

// PairAt returns a pair pointer to the given word address.
func PairAt(addr uint64) Value { return Value(addr<<tagBits) | TagPair }

// ObjAt returns an object pointer to the given word address.
func ObjAt(addr uint64) Value { return Value(addr<<tagBits) | TagObj }

// WithAddr returns v retargeted at addr, preserving its pointer tag.
// It is used when following a forwarding word.
func (v Value) WithAddr(addr uint64) Value {
	return Value(addr<<tagBits) | v&tagMask
}

// MakeHeader builds an object header word for kind k with the given
// length. The meaning of length depends on the kind: element count for
// vectors and records, byte count for strings and bytevectors, and a
// fixed word count for the remaining kinds.
func MakeHeader(k Kind, length int) uint64 {
	return TagHeader | uint64(k)<<tagBits | uint64(length)<<11
}

// IsHeader reports whether the heap word w is an object header.
func IsHeader(w uint64) bool { return w&tagMask == TagHeader }

// HeaderKind extracts the object kind from a header word.
func HeaderKind(w uint64) Kind { return Kind((w >> tagBits) & 0xff) }

// HeaderLength extracts the length field from a header word.
func HeaderLength(w uint64) int { return int(w >> 11) }

// MakeFwd builds a forwarding word pointing at newAddr.
func MakeFwd(newAddr uint64) uint64 { return TagFwd | newAddr<<tagBits }

// IsFwd reports whether the heap word w is a forwarding word.
func IsFwd(w uint64) bool { return w&tagMask == TagFwd }

// FwdAddr extracts the destination address from a forwarding word.
func FwdAddr(w uint64) uint64 { return w >> tagBits }

// PayloadWords returns the number of payload words (excluding the
// header) occupied by an object of kind k with the given length field.
func PayloadWords(k Kind, length int) int {
	switch k {
	case KString, KBytevector:
		return (length + 7) / 8
	default:
		return length
	}
}

// String renders immediates and fixnums directly and pointers as
// tagged addresses; the scheme package provides full printing.
func (v Value) String() string {
	switch {
	case v.IsFixnum():
		return fmt.Sprintf("%d", v.FixnumValue())
	case v == False:
		return "#f"
	case v == True:
		return "#t"
	case v == Nil:
		return "()"
	case v == EOF:
		return "#<eof>"
	case v == Void:
		return "#<void>"
	case v == Unbound:
		return "#<unbound>"
	case v.IsChar():
		return fmt.Sprintf("#\\%c", v.CharValue())
	case v.IsPrim():
		return fmt.Sprintf("#<primitive %d>", v.PrimIndex())
	case v.IsPair():
		return fmt.Sprintf("#<pair @%d>", v.Addr())
	case v.IsObj():
		return fmt.Sprintf("#<obj @%d>", v.Addr())
	default:
		return fmt.Sprintf("#<value %x>", uint64(v))
	}
}
