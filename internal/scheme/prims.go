package scheme

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
)

// builtins is the dispatch table of the built-in primitives: entry i
// is primitive index i on every machine, and each entry reaches the
// machine that calls it (and its heap) through its first argument, so
// one table serves every machine in the process. Host primitives
// (DefinePrim) follow it in each machine's own hostPrims. The order is
// part of the image and template contract — a primitive immediate in a
// heap (obj.FromPrim) carries its index — so entries are only ever
// appended.
var builtins []prim

// init fills builtins. It is not a variable initializer because that
// would be an initialization cycle: primitives such as apply dispatch
// back through callPrim, which reads the table.
func init() {
	def := func(name string, min, max int, fn func(*Machine, Args) (obj.Value, error)) {
		builtins = append(builtins, prim{name: name, min: min, max: max, fn: fn})
	}

	// --- Pairs and lists -------------------------------------------------
	def("cons", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return m.H.Cons(a.Get(0), a.Get(1)), nil
	})
	def("car", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		if !a.Get(0).IsPair() {
			return obj.Void, m.errf(a.Get(0), "car: not a pair")
		}
		return m.H.Car(a.Get(0)), nil
	})
	def("cdr", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		if !a.Get(0).IsPair() {
			return obj.Void, m.errf(a.Get(0), "cdr: not a pair")
		}
		return m.H.Cdr(a.Get(0)), nil
	})
	def("set-car!", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		if !a.Get(0).IsPair() {
			return obj.Void, m.errf(a.Get(0), "set-car!: not a pair")
		}
		m.H.SetCar(a.Get(0), a.Get(1))
		return obj.Void, nil
	})
	def("set-cdr!", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		if !a.Get(0).IsPair() {
			return obj.Void, m.errf(a.Get(0), "set-cdr!: not a pair")
		}
		m.H.SetCdr(a.Get(0), a.Get(1))
		return obj.Void, nil
	})
	def("pair?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0).IsPair()), nil
	})
	def("null?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0) == obj.Nil), nil
	})
	def("list", 0, -1, func(m *Machine, a Args) (obj.Value, error) {
		out := m.slot(obj.Nil)
		for i := a.Len() - 1; i >= 0; i-- {
			m.set(out, m.H.Cons(a.Get(i), m.get(out)))
		}
		v := m.get(out)
		m.stack = m.stack[:len(m.stack)-1]
		return v, nil
	})
	def("length", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		n := m.H.ListLength(a.Get(0))
		if n < 0 {
			return obj.Void, m.errf(a.Get(0), "length: not a proper list")
		}
		return obj.FromFixnum(int64(n)), nil
	})
	def("list?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.ListLength(a.Get(0)) >= 0), nil
	})
	def("append", 0, -1, func(m *Machine, a Args) (obj.Value, error) {
		if a.Len() == 0 {
			return obj.Nil, nil
		}
		outS := m.slot(a.Get(a.Len() - 1))
		for i := a.Len() - 2; i >= 0; i-- {
			aS := m.slot(a.Get(i))
			v := m.appendLists(aS, outS)
			m.stack = m.stack[:len(m.stack)-1]
			m.set(outS, v)
		}
		v := m.get(outS)
		m.stack = m.stack[:len(m.stack)-1]
		return v, nil
	})
	def("reverse", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		outS := m.slot(obj.Nil)
		pS := m.slot(a.Get(0))
		for m.get(pS).IsPair() {
			m.set(outS, h.Cons(h.Car(m.get(pS)), m.get(outS)))
			m.set(pS, h.Cdr(m.get(pS)))
		}
		v := m.get(outS)
		m.stack = m.stack[:len(m.stack)-2]
		return v, nil
	})
	def("memq", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		for p := a.Get(1); p.IsPair(); p = h.Cdr(p) {
			if h.Car(p) == a.Get(0) {
				return p, nil
			}
		}
		return obj.False, nil
	})
	def("assq", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		for p := a.Get(1); p.IsPair(); p = h.Cdr(p) {
			e := h.Car(p)
			if e.IsPair() && h.Car(e) == a.Get(0) {
				return e, nil
			}
		}
		return obj.False, nil
	})
	def("remq", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		// Copy the list, dropping elements eq to the first argument.
		h := m.H
		outBase := len(m.stack)
		for p := m.slot(a.Get(1)); m.get(p).IsPair(); m.set(p, h.Cdr(m.get(p))) {
			if c := h.Car(m.get(p)); c != a.Get(0) {
				m.stack = append(m.stack, c)
			}
		}
		outS := m.slot(obj.Nil)
		for i := len(m.stack) - 2; i >= outBase+1; i-- {
			m.set(outS, h.Cons(m.stack[i], m.get(outS)))
		}
		v := m.get(outS)
		m.stack = m.stack[:outBase]
		return v, nil
	})
	def("list-ref", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		p := a.Get(0)
		for i := a.Get(1).FixnumValue(); i > 0; i-- {
			if !p.IsPair() {
				return obj.Void, m.errf(a.Get(0), "list-ref: index out of range")
			}
			p = h.Cdr(p)
		}
		if !p.IsPair() {
			return obj.Void, m.errf(a.Get(0), "list-ref: index out of range")
		}
		return h.Car(p), nil
	})

	// --- Identity and equality --------------------------------------------
	def("eq?", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0) == a.Get(1)), nil
	})
	def("eqv?", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.Eqv(a.Get(0), a.Get(1))), nil
	})
	def("equal?", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.equalValues(a.Get(0), a.Get(1), 1000)), nil
	})
	def("not", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0) == obj.False), nil
	})

	// --- Type predicates -----------------------------------------------------
	def("symbol?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.isSymbol(a.Get(0))), nil
	})
	def("string?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsKind(a.Get(0), obj.KString)), nil
	})
	def("vector?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsKind(a.Get(0), obj.KVector)), nil
	})
	def("procedure?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.isApplicable(a.Get(0))), nil
	})
	def("boolean?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0).IsBool()), nil
	})
	def("char?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0).IsChar()), nil
	})
	def("number?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0).IsFixnum() || m.H.IsKind(a.Get(0), obj.KFlonum)), nil
	})
	def("integer?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0).IsFixnum()), nil
	})
	def("eof-object?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0) == obj.EOF), nil
	})
	def("weak-pair?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsWeakPair(a.Get(0))), nil
	})
	def("box?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsKind(a.Get(0), obj.KBox)), nil
	})

	// --- Arithmetic -------------------------------------------------------------
	def("+", 0, -1, arithPrim(0, fxAdd, func(x, y float64) float64 { return x + y }))
	def("*", 0, -1, arithPrim(1, func(x, y int64) int64 { return x * y },
		func(x, y float64) float64 { return x * y }))
	def("-", 1, -1, arithSubPrim(fxSub, func(x, y float64) float64 { return x - y }, 0))
	def("/", 1, -1, func(m *Machine, a Args) (obj.Value, error) {
		// Division always yields a flonum unless exact and evenly divisible.
		h := m.H
		x, err := m.numAsFloat(a.Get(0))
		if err != nil {
			return obj.Void, err
		}
		if a.Len() == 1 {
			if x == 0 {
				return obj.Void, fmt.Errorf("scheme: /: division by zero")
			}
			return h.MakeFlonum(1 / x), nil
		}
		allExact := a.Get(0).IsFixnum()
		acc := x
		iacc := a.Get(0).FixnumValue()
		exactOK := allExact
		for i := 1; i < a.Len(); i++ {
			y, err := m.numAsFloat(a.Get(i))
			if err != nil {
				return obj.Void, err
			}
			if y == 0 {
				return obj.Void, fmt.Errorf("scheme: /: division by zero")
			}
			acc /= y
			if exactOK && a.Get(i).IsFixnum() && iacc%a.Get(i).FixnumValue() == 0 {
				iacc /= a.Get(i).FixnumValue()
			} else {
				exactOK = false
			}
		}
		if exactOK {
			return obj.FromFixnum(iacc), nil
		}
		return h.MakeFlonum(acc), nil
	})
	def("quotient", 2, 2, intBinPrim("quotient", func(x, y int64) (int64, error) {
		if y == 0 {
			return 0, fmt.Errorf("scheme: quotient: division by zero")
		}
		return x / y, nil
	}))
	def("remainder", 2, 2, intBinPrim("remainder", func(x, y int64) (int64, error) {
		if y == 0 {
			return 0, fmt.Errorf("scheme: remainder: division by zero")
		}
		return x % y, nil
	}))
	def("modulo", 2, 2, intBinPrim("modulo", func(x, y int64) (int64, error) {
		if y == 0 {
			return 0, fmt.Errorf("scheme: modulo: division by zero")
		}
		r := x % y
		if r != 0 && (r < 0) != (y < 0) {
			r += y
		}
		return r, nil
	}))
	def("=", 2, -1, cmpPrim(fxEqual, func(x, y float64) bool { return x == y }))
	def("<", 2, -1, cmpPrim(fxLess, func(x, y float64) bool { return x < y }))
	def(">", 2, -1, cmpPrim(func(x, y int64) bool { return x > y },
		func(x, y float64) bool { return x > y }))
	def("<=", 2, -1, cmpPrim(func(x, y int64) bool { return x <= y },
		func(x, y float64) bool { return x <= y }))
	def(">=", 2, -1, cmpPrim(func(x, y int64) bool { return x >= y },
		func(x, y float64) bool { return x >= y }))
	def("zero?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		x, err := m.numAsFloat(a.Get(0))
		return obj.FromBool(x == 0), err
	})
	def("positive?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		x, err := m.numAsFloat(a.Get(0))
		return obj.FromBool(x > 0), err
	})
	def("negative?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		x, err := m.numAsFloat(a.Get(0))
		return obj.FromBool(x < 0), err
	})
	def("even?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0).FixnumValue()%2 == 0), nil
	})
	def("odd?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0).FixnumValue()%2 != 0), nil
	})
	def("abs", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		if a.Get(0).IsFixnum() {
			n := a.Get(0).FixnumValue()
			if n < 0 {
				n = -n
			}
			return obj.FromFixnum(n), nil
		}
		f, err := m.numAsFloat(a.Get(0))
		if err != nil {
			return obj.Void, err
		}
		if f < 0 {
			f = -f
		}
		return m.H.MakeFlonum(f), nil
	})
	def("min", 1, -1, minmaxPrim(fxLess, func(x, y float64) bool { return x < y }))
	def("max", 1, -1, minmaxPrim(func(x, y int64) bool { return x > y },
		func(x, y float64) bool { return x > y }))

	// --- Characters ------------------------------------------------------------
	def("char->integer", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromFixnum(int64(a.Get(0).CharValue())), nil
	})
	def("integer->char", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromChar(rune(a.Get(0).FixnumValue())), nil
	})
	def("char=?", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0) == a.Get(1)), nil
	})

	// --- Strings ----------------------------------------------------------------
	def("string-length", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromFixnum(int64(m.H.StringLength(a.Get(0)))), nil
	})
	def("string-ref", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		s := m.H.StringValue(a.Get(0))
		i := int(a.Get(1).FixnumValue())
		if i < 0 || i >= len(s) {
			return obj.Void, fmt.Errorf("scheme: string-ref: index out of range")
		}
		return obj.FromChar(rune(s[i])), nil
	})
	def("string-append", 0, -1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		out := ""
		for i := 0; i < a.Len(); i++ {
			out += h.StringValue(a.Get(i))
		}
		return h.MakeString(out), nil
	})
	def("substring", 3, 3, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		s := h.StringValue(a.Get(0))
		i, j := int(a.Get(1).FixnumValue()), int(a.Get(2).FixnumValue())
		if i < 0 || j > len(s) || i > j {
			return obj.Void, fmt.Errorf("scheme: substring: bad range [%d,%d)", i, j)
		}
		return h.MakeString(s[i:j]), nil
	})
	def("string=?", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.StringValue(a.Get(0)) == m.H.StringValue(a.Get(1))), nil
	})
	def("symbol->string", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.H.MakeString(m.H.SymbolString(a.Get(0))), nil
	})
	def("string->symbol", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.Intern(m.H.StringValue(a.Get(0))), nil
	})
	def("number->string", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.H.MakeString(m.DisplayString(a.Get(0))), nil
	})
	def("string->number", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		s := h.StringValue(a.Get(0))
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return obj.FromFixnum(n), nil
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return h.MakeFlonum(f), nil
		}
		return obj.False, nil
	})
	def("gensym", 0, 0, func(m *Machine, a Args) (obj.Value, error) {
		return m.Gensym(), nil
	})
	def("char->string", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		if !a.Get(0).IsChar() {
			return obj.Void, m.errf(a.Get(0), "char->string: not a character")
		}
		return m.H.MakeString(string(a.Get(0).CharValue())), nil
	})
	def("char-upcase", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		r := a.Get(0).CharValue()
		if r >= 'a' && r <= 'z' {
			r -= 32
		}
		return obj.FromChar(r), nil
	})
	def("char-downcase", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		r := a.Get(0).CharValue()
		if r >= 'A' && r <= 'Z' {
			r += 32
		}
		return obj.FromChar(r), nil
	})
	def("char<?", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0).CharValue() < a.Get(1).CharValue()), nil
	})
	def("string<?", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.StringValue(a.Get(0)) < m.H.StringValue(a.Get(1))), nil
	})
	def("string-copy", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.H.MakeString(m.H.StringValue(a.Get(0))), nil
	})
	def("exact?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(a.Get(0).IsFixnum()), nil
	})
	def("inexact?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsKind(a.Get(0), obj.KFlonum)), nil
	})
	def("exact->inexact", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		f, err := m.numAsFloat(a.Get(0))
		if err != nil {
			return obj.Void, err
		}
		return m.H.MakeFlonum(f), nil
	})
	def("inexact->exact", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		if a.Get(0).IsFixnum() {
			return a.Get(0), nil
		}
		f, err := m.numAsFloat(a.Get(0))
		if err != nil {
			return obj.Void, err
		}
		return obj.FromFixnum(int64(f)), nil
	})
	def("expt", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		if !a.Get(0).IsFixnum() || !a.Get(1).IsFixnum() || a.Get(1).FixnumValue() < 0 {
			return obj.Void, fmt.Errorf("scheme: expt: expected non-negative fixnum exponent")
		}
		base, exp := a.Get(0).FixnumValue(), a.Get(1).FixnumValue()
		out := int64(1)
		for ; exp > 0; exp-- {
			out *= base
		}
		return obj.FromFixnum(out), nil
	})

	// --- Vectors -------------------------------------------------------------------
	def("make-vector", 1, 2, func(m *Machine, a Args) (obj.Value, error) {
		fill := obj.Value(obj.False)
		if a.Len() == 2 {
			fill = a.Get(1)
		}
		n := a.Get(0).FixnumValue()
		if n < 0 {
			return obj.Void, fmt.Errorf("scheme: make-vector: negative length")
		}
		return m.H.MakeVector(int(n), fill), nil
	})
	def("vector", 0, -1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		vS := m.slot(h.MakeVector(a.Len(), obj.False))
		for i := 0; i < a.Len(); i++ {
			h.VectorSet(m.get(vS), i, a.Get(i))
		}
		v := m.get(vS)
		m.stack = m.stack[:len(m.stack)-1]
		return v, nil
	})
	def("vector-ref", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		i := int(a.Get(1).FixnumValue())
		if !h.IsKind(a.Get(0), obj.KVector) || i < 0 || i >= h.VectorLength(a.Get(0)) {
			return obj.Void, m.errf(a.Get(0), "vector-ref: bad vector or index %d", i)
		}
		return h.VectorRef(a.Get(0), i), nil
	})
	def("vector-set!", 3, 3, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		i := int(a.Get(1).FixnumValue())
		if !h.IsKind(a.Get(0), obj.KVector) || i < 0 || i >= h.VectorLength(a.Get(0)) {
			return obj.Void, m.errf(a.Get(0), "vector-set!: bad vector or index %d", i)
		}
		h.VectorSet(a.Get(0), i, a.Get(2))
		return obj.Void, nil
	})
	def("vector-length", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromFixnum(int64(m.H.VectorLength(a.Get(0)))), nil
	})
	def("vector-fill!", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		for i, n := 0, h.VectorLength(a.Get(0)); i < n; i++ {
			h.VectorSet(a.Get(0), i, a.Get(1))
		}
		return obj.Void, nil
	})
	def("vector->list", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		outS := m.slot(obj.Nil)
		for i := h.VectorLength(a.Get(0)) - 1; i >= 0; i-- {
			m.set(outS, h.Cons(h.VectorRef(a.Get(0), i), m.get(outS)))
		}
		v := m.get(outS)
		m.stack = m.stack[:len(m.stack)-1]
		return v, nil
	})
	def("list->vector", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		n := h.ListLength(a.Get(0))
		if n < 0 {
			return obj.Void, m.errf(a.Get(0), "list->vector: not a proper list")
		}
		vS := m.slot(h.MakeVector(n, obj.False))
		p := a.Get(0)
		for i := 0; i < n; i++ {
			h.VectorSet(m.get(vS), i, h.Car(p))
			p = h.Cdr(p)
		}
		v := m.get(vS)
		m.stack = m.stack[:len(m.stack)-1]
		return v, nil
	})

	// --- Boxes ---------------------------------------------------------------------
	def("box", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.H.MakeBox(a.Get(0)), nil
	})
	def("unbox", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.H.Unbox(a.Get(0)), nil
	})
	def("set-box!", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		m.H.SetBox(a.Get(0), a.Get(1))
		return obj.Void, nil
	})

	// --- Control ---------------------------------------------------------------------
	def("apply", 2, -1, func(m *Machine, a Args) (obj.Value, error) {
		// (apply f a b ... rest-list)
		h := m.H
		var args []obj.Value
		for i := 1; i < a.Len()-1; i++ {
			args = append(args, a.Get(i))
		}
		last := a.Get(a.Len() - 1)
		for p := last; p.IsPair(); p = h.Cdr(p) {
			args = append(args, h.Car(p))
		}
		return m.Apply(a.Get(0), args)
	})
	def("error", 1, -1, func(m *Machine, a Args) (obj.Value, error) {
		msg := m.DisplayString(a.Get(0))
		for i := 1; i < a.Len(); i++ {
			msg += " " + m.WriteString(a.Get(i))
		}
		return obj.Void, fmt.Errorf("scheme: error: %s", msg)
	})
	def("void", 0, -1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.Void, nil
	})
	def("exit", 0, 1, func(m *Machine, a Args) (obj.Value, error) {
		code := 0
		if a.Len() == 1 && a.Get(0).IsFixnum() {
			code = int(a.Get(0).FixnumValue())
		}
		return obj.Void, &ExitError{Code: code}
	})
	def("disassemble", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		fn := a.Get(0)
		if !m.isCompiledClosure(fn) {
			return obj.Void, m.errf(fn, "disassemble: not a compiled procedure")
		}
		return h.MakeString(m.Disassemble(h.RecordRef(fn, 0))), nil
	})
	def("call-with-current-continuation", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.callCC(a.Get(0))
	})
	def("call/cc", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.callCC(a.Get(0))
	})
	def("dynamic-wind", 3, 3, func(m *Machine, a Args) (obj.Value, error) {
		return m.dynamicWind(a.Get(0), a.Get(1), a.Get(2))
	})

	// --- Output --------------------------------------------------------------------------
	def("display", 1, 2, func(m *Machine, a Args) (obj.Value, error) {
		return m.outputPrim(a, false)
	})
	def("write", 1, 2, func(m *Machine, a Args) (obj.Value, error) {
		return m.outputPrim(a, true)
	})
	def("newline", 0, 1, func(m *Machine, a Args) (obj.Value, error) {
		if a.Len() == 1 {
			return obj.Void, m.PM.WriteChar(a.Get(0), '\n')
		}
		fmt.Fprintln(m.Out)
		return obj.Void, nil
	})

	// --- Ports (the paper's motivating subsystem) ----------------------------------------
	def("open-input-file", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.PM.OpenInput(m.H.StringValue(a.Get(0)))
	})
	def("open-output-file", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.PM.OpenOutput(m.H.StringValue(a.Get(0)))
	})
	def("close-input-port", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.Void, m.PM.Close(a.Get(0))
	})
	def("close-output-port", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.Void, m.PM.Close(a.Get(0))
	})
	def("flush-output-port", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.Void, m.PM.Flush(a.Get(0))
	})
	def("read-char", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.PM.ReadChar(a.Get(0))
	})
	def("write-char", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return obj.Void, m.PM.WriteChar(a.Get(1), byte(a.Get(0).CharValue()))
	})
	def("port?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsKind(a.Get(0), obj.KPort)), nil
	})
	def("input-port?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsKind(a.Get(0), obj.KPort) && m.PM.IsInput(a.Get(0))), nil
	})
	def("output-port?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsKind(a.Get(0), obj.KPort) && m.PM.IsOutput(a.Get(0))), nil
	})
	def("port-open?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.PM.IsOpen(a.Get(0))), nil
	})
	def("file-exists?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.PM.FS().Exists(m.H.StringValue(a.Get(0)))), nil
	})
	def("file-contents", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		b, ok := m.PM.FS().ReadFile(h.StringValue(a.Get(0)))
		if !ok {
			return obj.False, nil
		}
		return h.MakeString(string(b)), nil
	})
	def("make-file", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		m.PM.FS().WriteFile(m.H.StringValue(a.Get(0)), []byte(m.H.StringValue(a.Get(1))))
		return obj.Void, nil
	})
	def("open-input-string", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return m.PM.OpenInputString(m.H.StringValue(a.Get(0)))
	})
	def("open-output-string", 0, 0, func(m *Machine, a Args) (obj.Value, error) {
		return m.PM.OpenOutputString()
	})
	def("get-output-string", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		s, err := m.PM.OutputString(a.Get(0))
		if err != nil {
			return obj.Void, err
		}
		return m.H.MakeString(s), nil
	})
	def("string-port?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsKind(a.Get(0), obj.KPort) && m.PM.IsStringPort(a.Get(0))), nil
	})
	def("read-line", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		var line []byte
		for {
			c, err := m.PM.ReadChar(a.Get(0))
			if err != nil {
				return obj.Void, err
			}
			if c == obj.EOF {
				if len(line) == 0 {
					return obj.EOF, nil
				}
				break
			}
			if c.CharValue() == '\n' {
				break
			}
			line = append(line, byte(c.CharValue()))
		}
		return m.H.MakeString(string(line)), nil
	})

	// --- Weak pairs and the guardian substrate (§3, §4) -----------------------------------
	def("weak-cons", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		return m.H.WeakCons(a.Get(0), a.Get(1)), nil
	})
	def("install-guardian", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		// The low-level interface of §4: the argument is a pair of the
		// object and the guardian's tconc.
		h := m.H
		p := a.Get(0)
		if !p.IsPair() || !h.Cdr(p).IsPair() {
			return obj.Void, m.errf(p, "install-guardian: expected (obj . tconc)")
		}
		h.InstallGuardian(h.Car(p), h.Cdr(p))
		return obj.Void, nil
	})
	def("install-guardian-rep", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		// §5's generalization: the argument is (obj rep . tconc).
		h := m.H
		p := a.Get(0)
		if !p.IsPair() || !h.Cdr(p).IsPair() || !h.Cdr(h.Cdr(p)).IsPair() {
			return obj.Void, m.errf(p, "install-guardian-rep: expected (obj rep . tconc)")
		}
		h.InstallGuardianRep(h.Car(p), h.Car(h.Cdr(p)), h.Cdr(h.Cdr(p)))
		return obj.Void, nil
	})

	// --- Collector control -----------------------------------------------------------------
	def("collect", 0, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		if a.Len() == 1 {
			h.Collect(int(a.Get(0).FixnumValue()))
		} else {
			h.CollectAuto()
		}
		return obj.Void, nil
	})
	def("collect-request-handler", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		if !m.isApplicable(a.Get(0)) {
			return obj.Void, m.errf(a.Get(0), "collect-request-handler: not a procedure")
		}
		hs := m.Intern("%collect-request-handler")
		h.SetSymbolValue(hs, a.Get(0))
		h.SetCollectRequestHandler(func(hp *heap.Heap) {
			fn := hp.SymbolValue(m.Intern("%collect-request-handler"))
			if _, err := m.Apply(fn, nil); err != nil {
				fmt.Fprintf(m.Out, "collect-request-handler error: %v\n", err)
			}
		})
		return obj.Void, nil
	})
	def("gc-policy", 0, 0, func(m *Machine, a Args) (obj.Value, error) {
		// (gc-policy) returns (policy-name-symbol . trigger-words): the
		// generation policy the heap was built with (simple, radix, or
		// adaptive — Config.Policy is the seam; see docs/ALGORITHM.md)
		// and the LIVE gen-0 trigger, which the adaptive policy retunes
		// after every collection, so successive calls can watch it move.
		h := m.H
		return h.Cons(m.Intern(h.Policy().Name()),
			obj.FromFixnum(int64(h.TriggerWords()))), nil
	})
	def("generation", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromFixnum(int64(m.H.Generation(a.Get(0)))), nil
	})
	def("collections", 0, 0, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromFixnum(int64(m.H.Stats.Collections)), nil
	})
	def("bytes-allocated", 0, 0, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromFixnum(int64(m.H.Stats.WordsAllocated * 8)), nil
	})
	def("gc-phase-stats", 0, 0, func(m *Machine, a Args) (obj.Value, error) {
		// A list of (phase-symbol last-ns total-ns), one entry per
		// collection phase, in phase order. The last-collection column
		// comes from the CollectionReport (zero before the first
		// collection); the totals from the cumulative Stats.
		h := m.H
		var last [heap.NumPhases]time.Duration
		if rep := h.LastReport(); rep != nil {
			last = rep.Phases
		}
		out := obj.Nil
		for i := heap.NumPhases - 1; i >= 0; i-- {
			entry := h.Cons(m.Intern(heap.Phase(i).String()),
				h.Cons(obj.FromFixnum(last[i].Nanoseconds()),
					h.Cons(obj.FromFixnum(h.Stats.PhaseTotals[i].Nanoseconds()), obj.Nil)))
			out = h.Cons(entry, out)
		}
		return out, nil
	})
	def("gc-remset-stats", 0, 0, func(m *Machine, a Args) (obj.Value, error) {
		// The number of dirty segments, then the same counted by mark:
		// (total gen0 gen1 ...), an element per generation, gen0 the
		// segments that point into generation 0 (heap.DirtyByGen).
		h := m.H
		byGen := obj.Nil
		sizes := h.DirtyByGen()
		for i := len(sizes) - 1; i >= 0; i-- {
			byGen = h.Cons(obj.FromFixnum(int64(sizes[i])), byGen)
		}
		return h.Cons(obj.FromFixnum(int64(h.DirtyCount())), byGen), nil
	})
	def("gc-trace", 0, 1, func(m *Machine, a Args) (obj.Value, error) {
		// (gc-trace n) enables the trace ring with capacity n (0
		// disables); (gc-trace) returns the buffered collection records,
		// oldest first, each an association list.
		h := m.H
		if a.Len() == 1 {
			n := a.Get(0)
			if !n.IsFixnum() || n.FixnumValue() < 0 {
				return obj.Void, m.errf(n, "gc-trace: capacity must be a non-negative fixnum")
			}
			h.EnableTrace(int(n.FixnumValue()))
			return obj.Void, nil
		}
		events := h.TraceEvents()
		acons := func(tail obj.Value, name string, v int64) obj.Value {
			return h.Cons(h.Cons(m.Intern(name), obj.FromFixnum(v)), tail)
		}
		out := obj.Nil
		for i := len(events) - 1; i >= 0; i-- {
			ev := &events[i]
			rec := obj.Nil
			for p := heap.NumPhases - 1; p >= 0; p-- {
				rec = acons(rec, heap.Phase(p).String()+"-ns", ev.PhaseNS[p])
			}
			rec = acons(rec, "weak-broken", int64(ev.WeakBroken))
			rec = acons(rec, "guardian-dropped", int64(ev.GuardianDropped))
			rec = acons(rec, "guardian-held", int64(ev.GuardianHeld))
			rec = acons(rec, "guardian-salvaged", int64(ev.GuardianSalvaged))
			rec = acons(rec, "sweep-passes", int64(ev.SweepPasses))
			rec = acons(rec, "words-copied", int64(ev.WordsCopied))
			rec = acons(rec, "pause-ns", ev.PauseNS)
			rec = acons(rec, "target", int64(ev.Target))
			rec = acons(rec, "gen", int64(ev.Gen))
			rec = acons(rec, "seq", int64(ev.Seq))
			out = h.Cons(rec, out)
		}
		return out, nil
	})
	// --- Records (procedural interface) ------------------------------------
	def("make-record", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		nf := a.Get(1).FixnumValue()
		if nf < 0 {
			return obj.Void, fmt.Errorf("scheme: make-record: negative field count")
		}
		return m.H.MakeRecord(a.Get(0), int(nf)), nil
	})
	def("record?", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromBool(m.H.IsKind(a.Get(0), obj.KRecord)), nil
	})
	def("record-rtd", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		if !h.IsKind(a.Get(0), obj.KRecord) {
			return obj.Void, m.errf(a.Get(0), "record-rtd: not a record")
		}
		return h.RecordRTD(a.Get(0)), nil
	})
	def("record-length", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		if !h.IsKind(a.Get(0), obj.KRecord) {
			return obj.Void, m.errf(a.Get(0), "record-length: not a record")
		}
		return obj.FromFixnum(int64(h.RecordLength(a.Get(0)))), nil
	})
	def("record-ref", 2, 2, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		r, i := a.Get(0), int(a.Get(1).FixnumValue())
		if !h.IsKind(r, obj.KRecord) || i < 0 || i >= h.RecordLength(r) {
			return obj.Void, m.errf(r, "record-ref: bad record or index %d", i)
		}
		return h.RecordRef(r, i), nil
	})
	def("record-set!", 3, 3, func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		r, i := a.Get(0), int(a.Get(1).FixnumValue())
		if !h.IsKind(r, obj.KRecord) || i < 0 || i >= h.RecordLength(r) {
			return obj.Void, m.errf(r, "record-set!: bad record or index %d", i)
		}
		h.RecordSet(r, i, a.Get(2))
		return obj.Void, nil
	})

	def("symbol-pruning", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		// Friedman-Wise oblist pruning (§2): with pruning on, interned
		// symbols with no global binding, property list, or heap
		// references are uninterned at each collection.
		m.EnableSymbolPruning(a.Get(0).IsTruthy())
		return obj.Void, nil
	})
	def("interned-count", 0, 0, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromFixnum(int64(m.InternedSymbols())), nil
	})
}

// The fixnum operations of the integrated arithmetic built-ins: their
// table entries and the VM's in-place cases (integrated) both use
// these, so each operation has one definition. + and - wrap to the
// fixnum range, as obj.FromFixnum does.
func fxAdd(x, y int64) int64  { return x + y }
func fxSub(x, y int64) int64  { return x - y }
func fxLess(x, y int64) bool  { return x < y }
func fxEqual(x, y int64) bool { return x == y }

// The dispatch indices of the built-ins the VM integrates, found in
// the table by name.
var primCons, primCar, primCdr, primPair, primNull, primEq, primNot,
	primAdd, primSub, primEqual, primLess int

func init() {
	for idx := range builtins {
		switch builtins[idx].name {
		case "cons":
			primCons = idx
		case "car":
			primCar = idx
		case "cdr":
			primCdr = idx
		case "pair?":
			primPair = idx
		case "null?":
			primNull = idx
		case "eq?":
			primEq = idx
		case "not":
			primNot = idx
		case "+":
			primAdd = idx
		case "-":
			primSub = idx
		case "=":
			primEqual = idx
		case "<":
			primLess = idx
		}
	}
}

// integrated computes a call of built-in idx on the n operands at
// m.stack[base:] in place, as a compiler integrates a primitive call,
// when idx is one of the integrated built-ins and the operands fit:
// two fixnums for arithmetic and comparison, a pair for car and cdr,
// the exact arity. Otherwise ok is false and the call goes through
// callPrimIndex — a wrong type or arity, a flonum, or any other index —
// whose table entry gives the same value or the same error. The test
// is on the operator's value, so a program that rebinds + or car calls
// its own procedure, never this.
func (m *Machine) integrated(idx, base, n int) (v obj.Value, ok bool) {
	a := m.stack[base : base+n]
	// The cases are not constants, so they are tested in order: the
	// arithmetic ones, the hottest, first.
	switch idx {
	case primAdd, primSub, primEqual, primLess:
		if n != 2 || !a[0].IsFixnum() || !a[1].IsFixnum() {
			break
		}
		x, y := a[0].FixnumValue(), a[1].FixnumValue()
		switch idx {
		case primAdd:
			return obj.FromFixnum(fxAdd(x, y)), true
		case primSub:
			return obj.FromFixnum(fxSub(x, y)), true
		case primEqual:
			return obj.FromBool(fxEqual(x, y)), true
		default:
			return obj.FromBool(fxLess(x, y)), true
		}
	case primCons:
		if n == 2 {
			return m.H.Cons(a[0], a[1]), true
		}
	case primCar:
		if n == 1 && a[0].IsPair() {
			return m.H.Car(a[0]), true
		}
	case primCdr:
		if n == 1 && a[0].IsPair() {
			return m.H.Cdr(a[0]), true
		}
	case primPair:
		if n == 1 {
			return obj.FromBool(a[0].IsPair()), true
		}
	case primNull:
		if n == 1 {
			return obj.FromBool(a[0] == obj.Nil), true
		}
	case primNot:
		if n == 1 {
			return obj.FromBool(a[0] == obj.False), true
		}
	case primEq:
		if n == 2 {
			return obj.FromBool(a[0] == a[1]), true
		}
	}
	return obj.Void, false
}

// installPrims binds the name of every built-in to the primitive
// immediate carrying its index. Machines booted by New call it; a
// machine attached to a template or loaded from an image inherits the
// bindings with its heap and installs nothing.
func (m *Machine) installPrims() {
	for idx := range builtins {
		m.H.SetSymbolValue(m.Intern(builtins[idx].name), obj.FromPrim(idx))
	}
}

func (m *Machine) outputPrim(a Args, write bool) (obj.Value, error) {
	var s string
	if write {
		s = m.WriteString(a.Get(0))
	} else {
		s = m.DisplayString(a.Get(0))
	}
	if a.Len() == 2 {
		return obj.Void, m.PM.WriteString(a.Get(1), s)
	}
	fmt.Fprint(m.Out, s)
	return obj.Void, nil
}

func (m *Machine) numAsFloat(v obj.Value) (float64, error) {
	if v.IsFixnum() {
		return float64(v.FixnumValue()), nil
	}
	if m.H.IsKind(v, obj.KFlonum) {
		return m.H.FlonumValue(v), nil
	}
	return 0, m.errf(v, "expected a number")
}

func (m *Machine) anyFlonum(a Args) bool {
	for i := 0; i < a.Len(); i++ {
		if m.H.IsKind(a.Get(i), obj.KFlonum) {
			return true
		}
	}
	return false
}

func arithPrim(id int64, fi func(x, y int64) int64, ff func(x, y float64) float64) func(*Machine, Args) (obj.Value, error) {
	return func(m *Machine, a Args) (obj.Value, error) {
		if m.anyFlonum(a) {
			acc := float64(id)
			first := true
			for i := 0; i < a.Len(); i++ {
				x, err := m.numAsFloat(a.Get(i))
				if err != nil {
					return obj.Void, err
				}
				if first && a.Len() > 0 {
					acc = ff(acc, x)
					first = false
				} else {
					acc = ff(acc, x)
				}
			}
			return m.H.MakeFlonum(acc), nil
		}
		acc := id
		for i := 0; i < a.Len(); i++ {
			if !a.Get(i).IsFixnum() {
				return obj.Void, m.errf(a.Get(i), "expected a number")
			}
			acc = fi(acc, a.Get(i).FixnumValue())
		}
		return obj.FromFixnum(acc), nil
	}
}

func arithSubPrim(fi func(x, y int64) int64, ff func(x, y float64) float64, id int64) func(*Machine, Args) (obj.Value, error) {
	return func(m *Machine, a Args) (obj.Value, error) {
		if m.anyFlonum(a) {
			x, err := m.numAsFloat(a.Get(0))
			if err != nil {
				return obj.Void, err
			}
			if a.Len() == 1 {
				return m.H.MakeFlonum(ff(float64(id), x)), nil
			}
			for i := 1; i < a.Len(); i++ {
				y, err := m.numAsFloat(a.Get(i))
				if err != nil {
					return obj.Void, err
				}
				x = ff(x, y)
			}
			return m.H.MakeFlonum(x), nil
		}
		if !a.Get(0).IsFixnum() {
			return obj.Void, m.errf(a.Get(0), "expected a number")
		}
		x := a.Get(0).FixnumValue()
		if a.Len() == 1 {
			return obj.FromFixnum(fi(id, x)), nil
		}
		for i := 1; i < a.Len(); i++ {
			if !a.Get(i).IsFixnum() {
				return obj.Void, m.errf(a.Get(i), "expected a number")
			}
			x = fi(x, a.Get(i).FixnumValue())
		}
		return obj.FromFixnum(x), nil
	}
}

// numCompare compares two numbers: exactly when both are fixnums, as
// float64 when either is a flonum. A fixnum beyond 2^53 has no exact
// float64, so converting two of them could make distinct numbers equal.
func (m *Machine) numCompare(x, y obj.Value, fi func(x, y int64) bool, ff func(x, y float64) bool) (bool, error) {
	if x.IsFixnum() && y.IsFixnum() {
		return fi(x.FixnumValue(), y.FixnumValue()), nil
	}
	xf, err := m.numAsFloat(x)
	if err != nil {
		return false, err
	}
	yf, err := m.numAsFloat(y)
	if err != nil {
		return false, err
	}
	return ff(xf, yf), nil
}

func cmpPrim(fi func(x, y int64) bool, ff func(x, y float64) bool) func(*Machine, Args) (obj.Value, error) {
	return func(m *Machine, a Args) (obj.Value, error) {
		for i := 0; i+1 < a.Len(); i++ {
			ok, err := m.numCompare(a.Get(i), a.Get(i+1), fi, ff)
			if err != nil {
				return obj.Void, err
			}
			if !ok {
				return obj.False, nil
			}
		}
		return obj.True, nil
	}
}

func minmaxPrim(fi func(x, y int64) bool, ff func(x, y float64) bool) func(*Machine, Args) (obj.Value, error) {
	return func(m *Machine, a Args) (obj.Value, error) {
		best := a.Get(0)
		if _, err := m.numAsFloat(best); err != nil {
			return obj.Void, err
		}
		for i := 1; i < a.Len(); i++ {
			better, err := m.numCompare(a.Get(i), best, fi, ff)
			if err != nil {
				return obj.Void, err
			}
			if better {
				best = a.Get(i)
			}
		}
		return best, nil
	}
}

func intBinPrim(name string, fn func(x, y int64) (int64, error)) func(*Machine, Args) (obj.Value, error) {
	return func(m *Machine, a Args) (obj.Value, error) {
		if !a.Get(0).IsFixnum() || !a.Get(1).IsFixnum() {
			return obj.Void, fmt.Errorf("scheme: %s: expected fixnums", name)
		}
		r, err := fn(a.Get(0).FixnumValue(), a.Get(1).FixnumValue())
		if err != nil {
			return obj.Void, err
		}
		return obj.FromFixnum(r), nil
	}
}

// equalValues implements equal? with a recursion budget.
func (m *Machine) equalValues(a, b obj.Value, budget int) bool {
	if budget <= 0 {
		return a == b
	}
	h := m.H
	if h.Eqv(a, b) {
		return true
	}
	switch {
	case a.IsPair() && b.IsPair():
		return m.equalValues(h.Car(a), h.Car(b), budget-1) &&
			m.equalValues(h.Cdr(a), h.Cdr(b), budget-1)
	case h.IsKind(a, obj.KString) && h.IsKind(b, obj.KString):
		return h.StringValue(a) == h.StringValue(b)
	case h.IsKind(a, obj.KVector) && h.IsKind(b, obj.KVector):
		n := h.VectorLength(a)
		if n != h.VectorLength(b) {
			return false
		}
		for i := 0; i < n; i++ {
			if !m.equalValues(h.VectorRef(a, i), h.VectorRef(b, i), budget-1) {
				return false
			}
		}
		return true
	}
	return false
}

// appendLists appends the list in slot aS to the value in slot bS
// (copying a, sharing b). Allocation never collects, so the result
// needs no root while it is built.
func (m *Machine) appendLists(aS, bS slot) obj.Value {
	h := m.H
	base := len(m.stack)
	for p := m.get(aS); p.IsPair(); p = h.Cdr(p) {
		m.stack = append(m.stack, h.Car(p))
	}
	out := m.get(bS)
	for i := len(m.stack) - 1; i >= base; i-- {
		out = h.Cons(m.stack[i], out)
	}
	m.stack = m.stack[:base]
	return out
}
