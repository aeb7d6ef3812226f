package scheme

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/obj"
)

// Reader parses s-expressions from a source string into heap values.
// Reading allocates but never collects (collections happen only at
// the VM's safe points), so partially built structures need no roots.
type Reader struct {
	m   *Machine
	src string
	pos int
}

// NewReader creates a reader over src for machine m.
func (m *Machine) NewReader(src string) *Reader {
	return &Reader{m: m, src: src}
}

// ErrEOF is returned by Read at end of input.
var ErrEOF = fmt.Errorf("scheme: end of input")

func (r *Reader) peek() (byte, bool) {
	if r.pos >= len(r.src) {
		return 0, false
	}
	return r.src[r.pos], true
}

func (r *Reader) skipSpace() {
	for r.pos < len(r.src) {
		c := r.src[r.pos]
		switch {
		case c == ';':
			for r.pos < len(r.src) && r.src[r.pos] != '\n' {
				r.pos++
			}
		case c == '#' && r.pos+1 < len(r.src) && r.src[r.pos+1] == '|':
			depth := 1
			r.pos += 2
			for r.pos+1 < len(r.src) && depth > 0 {
				if r.src[r.pos] == '|' && r.src[r.pos+1] == '#' {
					depth--
					r.pos += 2
				} else if r.src[r.pos] == '#' && r.src[r.pos+1] == '|' {
					depth++
					r.pos += 2
				} else {
					r.pos++
				}
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			r.pos++
		default:
			return
		}
	}
}

func isDelimiter(c byte) bool {
	switch c {
	case '(', ')', '[', ']', '"', ';', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// Read parses the next datum. It returns ErrEOF at end of input.
func (r *Reader) Read() (obj.Value, error) {
	r.skipSpace()
	c, ok := r.peek()
	if !ok {
		return obj.Void, ErrEOF
	}
	switch {
	case c == '(' || c == '[':
		r.pos++
		return r.readList(closer(c))
	case c == ')' || c == ']':
		return obj.Void, fmt.Errorf("scheme: unexpected %q at %d", c, r.pos)
	case c == '\'':
		r.pos++
		return r.readWrapped("quote")
	case c == '`':
		r.pos++
		return r.readWrapped("quasiquote")
	case c == ',':
		r.pos++
		if c2, ok := r.peek(); ok && c2 == '@' {
			r.pos++
			return r.readWrapped("unquote-splicing")
		}
		return r.readWrapped("unquote")
	case c == '"':
		return r.readString()
	case c == '#':
		return r.readHash()
	default:
		return r.readAtom()
	}
}

func closer(open byte) byte {
	if open == '[' {
		return ']'
	}
	return ')'
}

func (r *Reader) readWrapped(sym string) (obj.Value, error) {
	v, err := r.Read()
	if err != nil {
		if err == ErrEOF {
			err = fmt.Errorf("scheme: unexpected end of input after %s", sym)
		}
		return obj.Void, err
	}
	h := r.m.H
	return h.Cons(r.m.Intern(sym), h.Cons(v, obj.Nil)), nil
}

func (r *Reader) readList(close byte) (obj.Value, error) {
	h := r.m.H
	var items []obj.Value
	tail := obj.Nil
	for {
		r.skipSpace()
		c, ok := r.peek()
		if !ok {
			return obj.Void, fmt.Errorf("scheme: unterminated list")
		}
		if c == close {
			r.pos++
			break
		}
		if c == ')' || c == ']' {
			return obj.Void, fmt.Errorf("scheme: mismatched %q at %d", c, r.pos)
		}
		if c == '.' && r.pos+1 < len(r.src) && isDelimiter(r.src[r.pos+1]) {
			r.pos++
			v, err := r.Read()
			if err != nil {
				return obj.Void, err
			}
			tail = v
			r.skipSpace()
			c2, ok := r.peek()
			if !ok || c2 != close {
				return obj.Void, fmt.Errorf("scheme: bad dotted list")
			}
			r.pos++
			break
		}
		v, err := r.Read()
		if err != nil {
			return obj.Void, err
		}
		items = append(items, v)
	}
	out := tail
	for i := len(items) - 1; i >= 0; i-- {
		out = h.Cons(items[i], out)
	}
	return out, nil
}

func (r *Reader) readString() (obj.Value, error) {
	r.pos++ // opening quote
	var b strings.Builder
	for {
		if r.pos >= len(r.src) {
			return obj.Void, fmt.Errorf("scheme: unterminated string")
		}
		c := r.src[r.pos]
		r.pos++
		switch c {
		case '"':
			return r.m.H.MakeString(b.String()), nil
		case '\\':
			if r.pos >= len(r.src) {
				return obj.Void, fmt.Errorf("scheme: unterminated string escape")
			}
			e := r.src[r.pos]
			r.pos++
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\', '"':
				b.WriteByte(e)
			default:
				return obj.Void, fmt.Errorf("scheme: bad string escape \\%c", e)
			}
		default:
			b.WriteByte(c)
		}
	}
}

var namedChars = map[string]rune{
	"space":   ' ',
	"newline": '\n',
	"tab":     '\t',
	"nul":     0,
	"return":  '\r',
}

func (r *Reader) readHash() (obj.Value, error) {
	r.pos++ // '#'
	c, ok := r.peek()
	if !ok {
		return obj.Void, fmt.Errorf("scheme: lone #")
	}
	switch c {
	case 't':
		r.pos++
		return obj.True, nil
	case 'f':
		r.pos++
		return obj.False, nil
	case '\\':
		r.pos++
		start := r.pos
		for r.pos < len(r.src) && !isDelimiter(r.src[r.pos]) {
			r.pos++
		}
		tok := r.src[start:r.pos]
		if tok == "" {
			if r.pos < len(r.src) {
				r.pos++
				return obj.FromChar(rune(r.src[r.pos-1])), nil
			}
			return obj.Void, fmt.Errorf("scheme: bad character literal")
		}
		if len(tok) == 1 {
			return obj.FromChar(rune(tok[0])), nil
		}
		if ch, ok := namedChars[strings.ToLower(tok)]; ok {
			return obj.FromChar(ch), nil
		}
		rs := []rune(tok)
		if len(rs) == 1 {
			return obj.FromChar(rs[0]), nil
		}
		return obj.Void, fmt.Errorf("scheme: unknown character #\\%s", tok)
	case '(':
		r.pos++
		lst, err := r.readList(')')
		if err != nil {
			return obj.Void, err
		}
		h := r.m.H
		n := h.ListLength(lst)
		if n < 0 {
			return obj.Void, fmt.Errorf("scheme: dotted vector literal")
		}
		v := h.MakeVector(n, obj.False)
		for i := 0; i < n; i++ {
			h.VectorSet(v, i, h.Car(lst))
			lst = h.Cdr(lst)
		}
		return v, nil
	default:
		return obj.Void, fmt.Errorf("scheme: unknown # syntax #%c", c)
	}
}

func (r *Reader) readAtom() (obj.Value, error) {
	start := r.pos
	for r.pos < len(r.src) && !isDelimiter(r.src[r.pos]) {
		r.pos++
	}
	tok := r.src[start:r.pos]
	if tok == "" {
		return obj.Void, fmt.Errorf("scheme: empty token at %d", start)
	}
	if v, ok := parseNumber(r.m, tok); ok {
		return v, nil
	}
	return r.m.Intern(tok), nil
}

func parseNumber(m *Machine, tok string) (obj.Value, bool) {
	c := tok[0]
	if !(c >= '0' && c <= '9') &&
		!((c == '-' || c == '+' || c == '.') && len(tok) > 1) {
		return obj.Void, false
	}
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return obj.FromFixnum(n), true
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		// Reject tokens like "1+" that ParseFloat would reject anyway,
		// and symbols like "-" or "...".
		for _, r := range tok {
			if !unicode.IsDigit(r) && !strings.ContainsRune(".eE+-", r) {
				return obj.Void, false
			}
		}
		return m.H.MakeFlonum(f), true
	}
	return obj.Void, false
}

// ReadAll parses every datum in src and returns them as a Go slice.
func (m *Machine) ReadAll(src string) ([]obj.Value, error) {
	r := m.NewReader(src)
	var out []obj.Value
	for {
		v, err := r.Read()
		if err == ErrEOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
}
