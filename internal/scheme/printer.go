package scheme

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obj"
)

// maxPrintDepth bounds recursion when printing (cyclic structures are
// legal Scheme data; the printer cuts them off rather than looping).
const maxPrintDepth = 64

// WriteString renders v in write notation (strings quoted, chars as
// #\x literals).
func (m *Machine) WriteString(v obj.Value) string {
	var b strings.Builder
	m.print(&b, v, true, maxPrintDepth)
	return b.String()
}

// DisplayString renders v in display notation (strings and chars raw).
func (m *Machine) DisplayString(v obj.Value) string {
	var b strings.Builder
	m.print(&b, v, false, maxPrintDepth)
	return b.String()
}

func (m *Machine) print(b *strings.Builder, v obj.Value, write bool, depth int) {
	if depth <= 0 {
		b.WriteString("...")
		return
	}
	switch {
	case v.IsFixnum():
		fmt.Fprintf(b, "%d", v.FixnumValue())
	case v == obj.True:
		b.WriteString("#t")
	case v == obj.False:
		b.WriteString("#f")
	case v == obj.Nil:
		b.WriteString("()")
	case v == obj.EOF:
		b.WriteString("#<eof>")
	case v == obj.Void:
		b.WriteString("#<void>")
	case v == obj.Unbound:
		b.WriteString("#<unbound>")
	case v.IsChar():
		if write {
			switch v.CharValue() {
			case ' ':
				b.WriteString("#\\space")
			case '\n':
				b.WriteString("#\\newline")
			case '\t':
				b.WriteString("#\\tab")
			default:
				fmt.Fprintf(b, "#\\%c", v.CharValue())
			}
		} else {
			b.WriteRune(v.CharValue())
		}
	case v.IsPrim():
		// The immediate carries only its index; the name is the
		// dispatch entry's.
		if p := m.primAt(v.PrimIndex()); p != nil {
			fmt.Fprintf(b, "#<procedure %s>", p.name)
		} else {
			b.WriteString("#<primitive>")
		}
	case v.IsPair():
		m.printList(b, v, write, depth)
	case v.IsObj():
		m.printObj(b, v, write, depth)
	default:
		fmt.Fprintf(b, "#<value %x>", uint64(v))
	}
}

func (m *Machine) printList(b *strings.Builder, v obj.Value, write bool, depth int) {
	h := m.H
	// (quote x) and friends print in shorthand.
	if h.Cdr(v).IsPair() && h.Cdr(h.Cdr(v)) == obj.Nil {
		if s, ok := m.symbolNameOf(h.Car(v)); ok {
			shorthand := map[string]string{
				"quote": "'", "quasiquote": "`",
				"unquote": ",", "unquote-splicing": ",@",
			}
			if q, ok := shorthand[s]; ok {
				b.WriteString(q)
				m.print(b, h.Car(h.Cdr(v)), write, depth-1)
				return
			}
		}
	}
	b.WriteByte('(')
	n := 0
	for {
		m.print(b, h.Car(v), write, depth-1)
		rest := h.Cdr(v)
		if rest == obj.Nil {
			break
		}
		if !rest.IsPair() {
			b.WriteString(" . ")
			m.print(b, rest, write, depth-1)
			break
		}
		b.WriteByte(' ')
		v = rest
		n++
		if n > 1<<16 {
			b.WriteString("...")
			break
		}
	}
	b.WriteByte(')')
}

func (m *Machine) symbolNameOf(v obj.Value) (string, bool) {
	if m.H.IsKind(v, obj.KSymbol) {
		return m.H.SymbolString(v), true
	}
	return "", false
}

func (m *Machine) printObj(b *strings.Builder, v obj.Value, write bool, depth int) {
	h := m.H
	kind, ok := h.KindOf(v)
	if !ok {
		b.WriteString("#<corrupt>")
		return
	}
	switch kind {
	case obj.KString:
		if write {
			fmt.Fprintf(b, "%q", h.StringValue(v))
		} else {
			b.WriteString(h.StringValue(v))
		}
	case obj.KSymbol:
		b.WriteString(h.SymbolString(v))
	case obj.KFlonum:
		s := strconv.FormatFloat(h.FlonumValue(v), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		b.WriteString(s)
	case obj.KVector:
		b.WriteString("#(")
		for i, n := 0, h.VectorLength(v); i < n; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			m.print(b, h.VectorRef(v, i), write, depth-1)
		}
		b.WriteByte(')')
	case obj.KBytevector:
		b.WriteString("#<bytevector ")
		fmt.Fprintf(b, "%d>", h.BytevectorLength(v))
	case obj.KBox:
		b.WriteString("#&")
		m.print(b, h.Unbox(v), write, depth-1)
	case obj.KPort:
		dir := "input"
		if h.PortField(v, 0).FixnumValue()&2 != 0 {
			dir = "output"
		}
		fmt.Fprintf(b, "#<%s-port fd=%d>", dir, h.PortField(v, 1).FixnumValue())
	case obj.KRecord:
		rtd := h.RecordRTD(v)
		if s, ok := m.symbolNameOf(rtd); ok {
			switch s {
			case "%continuation":
				b.WriteString("#<continuation>")
				return
			case "%compiled-closure", "%reference-closure":
				if name, ok := m.symbolNameOf(h.RecordRef(v, 2)); ok {
					fmt.Fprintf(b, "#<procedure %s>", name)
				} else {
					b.WriteString("#<procedure>")
				}
				return
			}
		}
		b.WriteString("#<record")
		if h.IsKind(rtd, obj.KString) {
			fmt.Fprintf(b, " %s", h.StringValue(rtd))
		} else if s, ok := m.symbolNameOf(rtd); ok {
			fmt.Fprintf(b, " %s", s)
		}
		b.WriteByte('>')
	default:
		fmt.Fprintf(b, "#<%v>", kind)
	}
}
