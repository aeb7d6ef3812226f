package scheme

import (
	"fmt"

	"repro/internal/obj"
)

// desugar rewrites a derived form into the compiler's core language
// (quote, if, lambda, case-lambda, begin, define, set!, application).
// It allocates heap expressions but never collects, so plain Go
// variables are safe throughout.
func (m *Machine) desugar(form formID, expr obj.Value) (obj.Value, error) {
	h := m.H
	rest := h.Cdr(expr)
	bad := func() (obj.Value, error) {
		return obj.Void, fmt.Errorf("compile: malformed form: %s", m.WriteString(expr))
	}
	sym := m.Intern
	list := h.List

	switch form {
	case fLet:
		if !rest.IsPair() {
			return bad()
		}
		if m.isSymbol(h.Car(rest)) {
			// (let name ((v i)...) body...) =>
			// ((letrec ((name (lambda (v...) body...))) name) i...)
			if !h.Cdr(rest).IsPair() {
				return bad()
			}
			name := h.Car(rest)
			bindings := h.Car(h.Cdr(rest))
			body := h.Cdr(h.Cdr(rest))
			vars, inits, err := m.splitBindings(bindings)
			if err != nil {
				return bad()
			}
			lam := h.Cons(sym("lambda"), h.Cons(vars, body))
			letrec := list(sym("letrec"), list(list(name, lam)), name)
			return h.Cons(letrec, inits), nil
		}
		// (let ((v i)...) body...) => ((lambda (v...) body...) i...)
		vars, inits, err := m.splitBindings(h.Car(rest))
		if err != nil {
			return bad()
		}
		lam := h.Cons(sym("lambda"), h.Cons(vars, h.Cdr(rest)))
		return h.Cons(lam, inits), nil

	case fLetStar:
		if !rest.IsPair() {
			return bad()
		}
		bindings := h.Car(rest)
		body := h.Cdr(rest)
		if bindings == obj.Nil {
			return h.Cons(sym("let"), h.Cons(obj.Nil, body)), nil
		}
		if !bindings.IsPair() {
			return bad()
		}
		inner := h.Cons(sym("let*"), h.Cons(h.Cdr(bindings), body))
		return list(sym("let"), list(h.Car(bindings)), inner), nil

	case fLetrec, fLetrecStar:
		// (letrec ((v e)...) body...) =>
		// ((lambda (v...) (set! v e) ... body...) #f ...)
		if !rest.IsPair() {
			return bad()
		}
		vars, inits, err := m.splitBindings(h.Car(rest))
		if err != nil {
			return bad()
		}
		var sets []obj.Value
		v, i := vars, inits
		for v.IsPair() {
			sets = append(sets, list(sym("set!"), h.Car(v), h.Car(i)))
			v, i = h.Cdr(v), h.Cdr(i)
		}
		body := h.Cdr(rest)
		for j := len(sets) - 1; j >= 0; j-- {
			body = h.Cons(sets[j], body)
		}
		lam := h.Cons(sym("lambda"), h.Cons(vars, body))
		call := h.Cons(lam, obj.Nil)
		args := obj.Nil
		for p := vars; p.IsPair(); p = h.Cdr(p) {
			args = h.Cons(obj.False, args)
		}
		h.SetCdr(call, args)
		return call, nil

	case fCond:
		if rest == obj.Nil {
			return list(sym("void")), nil
		}
		clause := h.Car(rest)
		if !clause.IsPair() {
			return bad()
		}
		test := h.Car(clause)
		body := h.Cdr(clause)
		more := h.Cons(sym("cond"), h.Cdr(rest))
		if m.isSymbol(test) && test == m.keywords[kwElse] {
			return h.Cons(sym("begin"), body), nil
		}
		if body == obj.Nil {
			// (cond (t) rest...) => (or t (cond rest...))
			return list(sym("or"), test, more), nil
		}
		if m.isSymbol(h.Car(body)) && h.Car(body) == m.keywords[kwArrow] {
			// (cond (t => f) rest...) =>
			// (let ((tmp t)) (if tmp (f tmp) (cond rest...)))
			tmp := m.Gensym()
			recv := h.Car(h.Cdr(body))
			return list(sym("let"), list(list(tmp, test)),
				list(sym("if"), tmp, list(recv, tmp), more)), nil
		}
		return list(sym("if"), test, h.Cons(sym("begin"), body), more), nil

	case fCase:
		// (case k clauses...) =>
		// (let ((tmp k)) (cond ((memv tmp 'datums) body...) ... (else ...)))
		if !rest.IsPair() {
			return bad()
		}
		tmp := m.Gensym()
		clauses := obj.Nil
		var built []obj.Value
		for p := h.Cdr(rest); p.IsPair(); p = h.Cdr(p) {
			cl := h.Car(p)
			if !cl.IsPair() {
				return bad()
			}
			data := h.Car(cl)
			body := h.Cdr(cl)
			if m.isSymbol(data) && data == m.keywords[kwElse] {
				built = append(built, h.Cons(m.keywords[kwElse], body))
				continue
			}
			test := list(sym("memv"), tmp, list(sym("quote"), data))
			built = append(built, h.Cons(test, body))
		}
		for j := len(built) - 1; j >= 0; j-- {
			clauses = h.Cons(built[j], clauses)
		}
		condExpr := h.Cons(sym("cond"), clauses)
		return list(sym("let"), list(list(tmp, h.Car(rest))), condExpr), nil

	case fAnd:
		if rest == obj.Nil {
			return obj.True, nil
		}
		if h.Cdr(rest) == obj.Nil {
			return h.Car(rest), nil
		}
		return list(sym("if"), h.Car(rest),
			h.Cons(sym("and"), h.Cdr(rest)), obj.False), nil

	case fOr:
		if rest == obj.Nil {
			return obj.False, nil
		}
		if h.Cdr(rest) == obj.Nil {
			return h.Car(rest), nil
		}
		tmp := m.Gensym()
		return list(sym("let"), list(list(tmp, h.Car(rest))),
			list(sym("if"), tmp, tmp, h.Cons(sym("or"), h.Cdr(rest)))), nil

	case fWhen:
		if !rest.IsPair() {
			return bad()
		}
		return list(sym("if"), h.Car(rest),
			h.Cons(sym("begin"), h.Cdr(rest)), list(sym("void"))), nil

	case fUnless:
		if !rest.IsPair() {
			return bad()
		}
		return list(sym("if"), h.Car(rest), list(sym("void")),
			h.Cons(sym("begin"), h.Cdr(rest))), nil

	case fDo:
		// (do ((v i s)...) (test res...) body...) =>
		// (let loop ((v i)...)
		//   (if test (begin (void) res...) (begin body... (loop s...))))
		if !rest.IsPair() || !h.Cdr(rest).IsPair() {
			return bad()
		}
		specs := h.Car(rest)
		exit := h.Car(h.Cdr(rest))
		body := h.Cdr(h.Cdr(rest))
		if !exit.IsPair() {
			return bad()
		}
		loop := m.Gensym()
		bindings := obj.Nil
		steps := obj.Nil
		var bl, sl []obj.Value
		for p := specs; p.IsPair(); p = h.Cdr(p) {
			spec := h.Car(p)
			if !spec.IsPair() || !h.Cdr(spec).IsPair() {
				return bad()
			}
			v := h.Car(spec)
			init := h.Car(h.Cdr(spec))
			step := v
			if h.Cdr(h.Cdr(spec)).IsPair() {
				step = h.Car(h.Cdr(h.Cdr(spec)))
			}
			bl = append(bl, list(v, init))
			sl = append(sl, step)
		}
		for j := len(bl) - 1; j >= 0; j-- {
			bindings = h.Cons(bl[j], bindings)
		}
		for j := len(sl) - 1; j >= 0; j-- {
			steps = h.Cons(sl[j], steps)
		}
		resBody := h.Cons(sym("begin"), h.Cons(list(sym("void")), h.Cdr(exit)))
		again := h.Cons(loop, steps)
		loopBody := h.Cons(sym("begin"), m.appendExprs(body, list(again)))
		ifExpr := list(sym("if"), h.Car(exit), resBody, loopBody)
		return h.Cons(sym("let"),
			h.Cons(loop, h.Cons(bindings, h.Cons(ifExpr, obj.Nil)))), nil

	case fQuasiquote:
		if !rest.IsPair() {
			return bad()
		}
		return m.expandQuasi(h.Car(rest), 1), nil
	}
	return bad()
}

// splitBindings splits ((v i) ...) into (v ...) and (i ...).
func (m *Machine) splitBindings(bindings obj.Value) (vars, inits obj.Value, err error) {
	h := m.H
	var vs, is []obj.Value
	for p := bindings; p != obj.Nil; p = h.Cdr(p) {
		if !p.IsPair() {
			return obj.Nil, obj.Nil, fmt.Errorf("compile: improper binding list")
		}
		b := h.Car(p)
		if !b.IsPair() || !h.Cdr(b).IsPair() || !m.isSymbol(h.Car(b)) {
			return obj.Nil, obj.Nil, fmt.Errorf("compile: malformed binding")
		}
		vs = append(vs, h.Car(b))
		is = append(is, h.Car(h.Cdr(b)))
	}
	vars, inits = obj.Nil, obj.Nil
	for j := len(vs) - 1; j >= 0; j-- {
		vars = h.Cons(vs[j], vars)
		inits = h.Cons(is[j], inits)
	}
	return vars, inits, nil
}

// appendExprs appends two heap lists (copying the first), for use
// during desugaring where no collection can intervene.
func (m *Machine) appendExprs(a, b obj.Value) obj.Value {
	h := m.H
	var items []obj.Value
	for p := a; p.IsPair(); p = h.Cdr(p) {
		items = append(items, h.Car(p))
	}
	out := b
	for j := len(items) - 1; j >= 0; j-- {
		out = h.Cons(items[j], out)
	}
	return out
}

// expandQuasi rewrites a quasiquote template into cons/append/
// list->vector expressions, handling nesting levels.
func (m *Machine) expandQuasi(t obj.Value, depth int) obj.Value {
	h := m.H
	sym := m.Intern
	list := h.List
	quoted := func(v obj.Value) obj.Value { return list(sym("quote"), v) }

	isTagged := func(v obj.Value, name string) bool {
		return v.IsPair() && m.isSymbol(h.Car(v)) && h.Car(v) == sym(name) &&
			h.Cdr(v).IsPair()
	}

	switch {
	case isTagged(t, "unquote"):
		if depth == 1 {
			return h.Car(h.Cdr(t))
		}
		return list(sym("list"), quoted(sym("unquote")),
			m.expandQuasi(h.Car(h.Cdr(t)), depth-1))
	case isTagged(t, "quasiquote"):
		return list(sym("list"), quoted(sym("quasiquote")),
			m.expandQuasi(h.Car(h.Cdr(t)), depth+1))
	case t.IsPair():
		if head := h.Car(t); isTagged(head, "unquote-splicing") && depth == 1 {
			return list(sym("append"), h.Car(h.Cdr(head)),
				m.expandQuasi(h.Cdr(t), depth))
		}
		return list(sym("cons"), m.expandQuasi(h.Car(t), depth),
			m.expandQuasi(h.Cdr(t), depth))
	case m.H.IsKind(t, obj.KVector):
		elems := obj.Nil
		for i := h.VectorLength(t) - 1; i >= 0; i-- {
			elems = h.Cons(h.VectorRef(t, i), elems)
		}
		return list(sym("list->vector"), m.expandQuasi(elems, depth))
	default:
		return quoted(t)
	}
}
