package scheme

import (
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/ports"
)

// The reference evaluator: a tree-walking interpreter of the language
// the compiler and VM run, kept as an executable specification that
// tests compare the VM against. Its environments are association-list
// frames and its closures are records tagged %reference-closure
// (makeRefClosure), which no compiled code builds; applyReference is
// its one seam into the package, the way Apply, call/cc, dynamic-wind
// and the collect-request handler reach its closures. A reference
// machine boots its own prelude on this evaluator, so it runs no
// compiled code.

func init() {
	applyReference = func(m *Machine, fn obj.Value, argsBase, n int) (obj.Value, error) {
		env, body, err := m.bindClause(fn, argsBase, n)
		if err != nil {
			return obj.Void, err
		}
		return m.evalBody(body, env)
	}
}

// NewReference is New with the prelude booted on the reference
// evaluator: every prelude procedure is an interpreted closure.
func NewReference(h *heap.Heap, pm *ports.Manager) *Machine {
	return boot(h, pm, (*Machine).RefEvalString)
}

// evalForm handles one special form. It either produces a final result
// (done == true) or a tail expression/environment pair for the Eval
// loop to continue with.
func (m *Machine) evalForm(form formID, expr, env obj.Value) (tailExpr, tailEnv, result obj.Value, done bool, err error) {
	h := m.H
	base := len(m.stack)
	defer func() { m.stack = m.stack[:base] }()
	eS := m.slot(expr)
	envS := m.slot(env)
	fail := func(format string, args ...any) (obj.Value, obj.Value, obj.Value, bool, error) {
		return obj.Void, obj.Void, obj.Void, false, m.errf(m.get(eS), format, args...)
	}
	rest := h.Cdr(expr) // the form's operands
	restS := m.slot(rest)

	need := func(n int) bool {
		p := m.get(restS)
		for i := 0; i < n; i++ {
			if !p.IsPair() {
				return false
			}
			p = h.Cdr(p)
		}
		return true
	}
	operand := func(i int) obj.Value {
		p := m.get(restS)
		for ; i > 0; i-- {
			p = h.Cdr(p)
		}
		return h.Car(p)
	}

	switch form {
	case fQuote:
		if !need(1) {
			return fail("malformed quote")
		}
		return obj.Void, obj.Void, operand(0), true, nil

	case fIf:
		if !need(2) {
			return fail("malformed if")
		}
		t, err := m.Eval(operand(0), m.get(envS))
		if err != nil {
			return fail("%v", err)
		}
		if t.IsTruthy() {
			return operand(1), m.get(envS), obj.Void, false, nil
		}
		if need(3) {
			return operand(2), m.get(envS), obj.Void, false, nil
		}
		return obj.Void, obj.Void, obj.Void, true, nil

	case fDefine:
		if !need(1) {
			return fail("malformed define")
		}
		target := operand(0)
		var valS slot
		var nameS slot
		if target.IsPair() {
			// (define (f . formals) body...)
			nameS = m.slot(h.Car(target))
			clause := h.Cons(h.Cdr(target), h.Cdr(m.get(restS)))
			cl := m.slot(clause)
			fn := m.makeRefClosure(h.Cons(m.get(cl), obj.Nil), m.get(envS), m.get(nameS))
			valS = m.slot(fn)
		} else {
			if !m.isSymbol(target) {
				return fail("define of non-symbol")
			}
			nameS = m.slot(target)
			var v obj.Value = obj.Void
			if need(2) {
				v, err = m.Eval(operand(1), m.get(envS))
				if err != nil {
					return fail("%v", err)
				}
			}
			valS = m.slot(v)
			if m.isReference(v) && h.RecordRef(v, 2) == obj.False {
				h.RecordSet(v, 2, m.get(nameS))
			}
		}
		if m.get(envS) == obj.Nil {
			h.SetSymbolValue(m.get(nameS), m.get(valS))
		} else {
			m.defineLocal(m.get(nameS), m.get(valS), envS)
		}
		return obj.Void, obj.Void, obj.Void, true, nil

	case fSet:
		if !need(2) {
			return fail("malformed set!")
		}
		if !m.isSymbol(operand(0)) {
			return fail("set! of non-symbol")
		}
		v, err := m.Eval(operand(1), m.get(envS))
		if err != nil {
			return fail("%v", err)
		}
		if err := m.assign(operand(0), v, m.get(envS)); err != nil {
			return fail("%v", err)
		}
		return obj.Void, obj.Void, obj.Void, true, nil

	case fLambda:
		if !need(1) {
			return fail("malformed lambda")
		}
		clause := h.Cons(operand(0), h.Cdr(m.get(restS)))
		clS := m.slot(clause)
		fn := m.makeRefClosure(h.Cons(m.get(clS), obj.Nil), m.get(envS), obj.False)
		return obj.Void, obj.Void, fn, true, nil

	case fCaseLambda:
		clausesS := m.slot(obj.Nil)
		// Build the clause list in reverse, then reverse it.
		for p := m.slot(m.get(restS)); m.get(p).IsPair(); m.set(p, h.Cdr(m.get(p))) {
			c := h.Car(m.get(p))
			if !c.IsPair() {
				return fail("malformed case-lambda clause")
			}
			cl := h.Cons(h.Car(c), h.Cdr(c))
			m.set(clausesS, h.Cons(cl, m.get(clausesS)))
		}
		revS := m.slot(obj.Nil)
		for p := m.get(clausesS); p.IsPair(); p = h.Cdr(p) {
			m.set(revS, h.Cons(h.Car(p), m.get(revS)))
		}
		fn := m.makeRefClosure(m.get(revS), m.get(envS), obj.False)
		return obj.Void, obj.Void, fn, true, nil

	case fBegin:
		if m.get(restS) == obj.Nil {
			return obj.Void, obj.Void, obj.Void, true, nil
		}
		return m.tailBody(restS, envS)

	case fLet:
		if need(1) && m.isSymbol(operand(0)) {
			return m.namedLet(restS, envS)
		}
		if !need(1) {
			return fail("malformed let")
		}
		// Evaluate inits in the outer env, then bind.
		frameS := m.slot(obj.Nil)
		for b := m.slot(operand(0)); m.get(b).IsPair(); m.set(b, h.Cdr(m.get(b))) {
			bind := h.Car(m.get(b))
			if !bind.IsPair() || !h.Cdr(bind).IsPair() || !m.isSymbol(h.Car(bind)) {
				return fail("malformed let binding")
			}
			v, err := m.Eval(h.Car(h.Cdr(bind)), m.get(envS))
			if err != nil {
				return fail("%v", err)
			}
			vS := m.slot(v)
			sym := h.Car(h.Car(m.get(b)))
			m.set(frameS, h.Cons(h.Cons(sym, m.get(vS)), m.get(frameS)))
		}
		newEnv := h.Cons(m.get(frameS), m.get(envS))
		m.set(envS, newEnv)
		m.set(restS, h.Cdr(m.get(restS)))
		return m.tailBody(restS, envS)

	case fLetStar:
		if !need(1) {
			return fail("malformed let*")
		}
		for b := m.slot(operand(0)); m.get(b).IsPair(); m.set(b, h.Cdr(m.get(b))) {
			bind := h.Car(m.get(b))
			if !bind.IsPair() || !h.Cdr(bind).IsPair() || !m.isSymbol(h.Car(bind)) {
				return fail("malformed let* binding")
			}
			v, err := m.Eval(h.Car(h.Cdr(bind)), m.get(envS))
			if err != nil {
				return fail("%v", err)
			}
			vS := m.slot(v)
			sym := h.Car(h.Car(m.get(b)))
			frame := h.Cons(h.Cons(sym, m.get(vS)), obj.Nil)
			m.set(envS, h.Cons(frame, m.get(envS)))
		}
		m.set(restS, h.Cdr(m.get(restS)))
		return m.tailBody(restS, envS)

	case fLetrec, fLetrecStar:
		if !need(1) {
			return fail("malformed letrec")
		}
		// One frame with all names pre-bound to Unbound, then
		// sequential initialization (letrec* semantics; letrec
		// programs that depend on simultaneity are rare and rejected
		// by the used-before-initialization check).
		frameS := m.slot(obj.Nil)
		for b := m.slot(operand(0)); m.get(b).IsPair(); m.set(b, h.Cdr(m.get(b))) {
			bind := h.Car(m.get(b))
			if !bind.IsPair() || !h.Cdr(bind).IsPair() || !m.isSymbol(h.Car(bind)) {
				return fail("malformed letrec binding")
			}
			m.set(frameS, h.Cons(h.Cons(h.Car(bind), obj.Unbound), m.get(frameS)))
		}
		m.set(envS, h.Cons(m.get(frameS), m.get(envS)))
		for b := m.slot(operand(0)); m.get(b).IsPair(); m.set(b, h.Cdr(m.get(b))) {
			bind := h.Car(m.get(b))
			v, err := m.Eval(h.Car(h.Cdr(bind)), m.get(envS))
			if err != nil {
				return fail("%v", err)
			}
			sym := h.Car(h.Car(m.get(b)))
			if m.isReference(v) && h.RecordRef(v, 2) == obj.False {
				h.RecordSet(v, 2, sym)
			}
			if err := m.assign(sym, v, m.get(envS)); err != nil {
				return fail("%v", err)
			}
		}
		m.set(restS, h.Cdr(m.get(restS)))
		return m.tailBody(restS, envS)

	case fCond:
		for c := m.slot(m.get(restS)); m.get(c).IsPair(); m.set(c, h.Cdr(m.get(c))) {
			clause := h.Car(m.get(c))
			if !clause.IsPair() {
				return fail("malformed cond clause")
			}
			test := h.Car(clause)
			if m.isSymbol(test) && test == m.keywords[kwElse] {
				bodyS := m.slot(h.Cdr(clause))
				return m.tailBody(bodyS, envS)
			}
			t, err := m.Eval(test, m.get(envS))
			if err != nil {
				return fail("%v", err)
			}
			if !t.IsTruthy() {
				continue
			}
			clause = h.Car(m.get(c)) // re-read post-eval
			body := h.Cdr(clause)
			if body == obj.Nil {
				return obj.Void, obj.Void, t, true, nil
			}
			if m.isSymbol(h.Car(body)) && h.Car(body) == m.keywords[kwArrow] {
				tS := m.slot(t)
				recv, err := m.Eval(h.Car(h.Cdr(body)), m.get(envS))
				if err != nil {
					return fail("%v", err)
				}
				v, err := m.Apply(recv, []obj.Value{m.get(tS)})
				if err != nil {
					return fail("%v", err)
				}
				return obj.Void, obj.Void, v, true, nil
			}
			bodyS := m.slot(body)
			return m.tailBody(bodyS, envS)
		}
		return obj.Void, obj.Void, obj.Void, true, nil

	case fCase:
		if !need(1) {
			return fail("malformed case")
		}
		key, err := m.Eval(operand(0), m.get(envS))
		if err != nil {
			return fail("%v", err)
		}
		keyS := m.slot(key)
		for c := m.slot(h.Cdr(m.get(restS))); m.get(c).IsPair(); m.set(c, h.Cdr(m.get(c))) {
			clause := h.Car(m.get(c))
			if !clause.IsPair() {
				return fail("malformed case clause")
			}
			data := h.Car(clause)
			match := m.isSymbol(data) && data == m.keywords[kwElse]
			for d := data; !match && d.IsPair(); d = h.Cdr(d) {
				if h.Eqv(h.Car(d), m.get(keyS)) {
					match = true
				}
			}
			if match {
				bodyS := m.slot(h.Cdr(clause))
				return m.tailBody(bodyS, envS)
			}
		}
		return obj.Void, obj.Void, obj.Void, true, nil

	case fAnd:
		if m.get(restS) == obj.Nil {
			return obj.Void, obj.Void, obj.True, true, nil
		}
		for h.Cdr(m.get(restS)).IsPair() {
			v, err := m.Eval(h.Car(m.get(restS)), m.get(envS))
			if err != nil {
				return fail("%v", err)
			}
			if !v.IsTruthy() {
				return obj.Void, obj.Void, obj.False, true, nil
			}
			m.set(restS, h.Cdr(m.get(restS)))
		}
		return h.Car(m.get(restS)), m.get(envS), obj.Void, false, nil

	case fOr:
		if m.get(restS) == obj.Nil {
			return obj.Void, obj.Void, obj.False, true, nil
		}
		for h.Cdr(m.get(restS)).IsPair() {
			v, err := m.Eval(h.Car(m.get(restS)), m.get(envS))
			if err != nil {
				return fail("%v", err)
			}
			if v.IsTruthy() {
				return obj.Void, obj.Void, v, true, nil
			}
			m.set(restS, h.Cdr(m.get(restS)))
		}
		return h.Car(m.get(restS)), m.get(envS), obj.Void, false, nil

	case fWhen, fUnless:
		if !need(1) {
			return fail("malformed when/unless")
		}
		t, err := m.Eval(operand(0), m.get(envS))
		if err != nil {
			return fail("%v", err)
		}
		want := t.IsTruthy()
		if form == fUnless {
			want = !want
		}
		if !want {
			return obj.Void, obj.Void, obj.Void, true, nil
		}
		m.set(restS, h.Cdr(m.get(restS)))
		if m.get(restS) == obj.Nil {
			return obj.Void, obj.Void, obj.Void, true, nil
		}
		return m.tailBody(restS, envS)

	case fDo:
		return m.doLoop(restS, envS)

	case fQuasiquote:
		if !need(1) {
			return fail("malformed quasiquote")
		}
		v, err := m.quasi(operand(0), m.get(envS), 1)
		if err != nil {
			return fail("%v", err)
		}
		return obj.Void, obj.Void, v, true, nil
	}
	return fail("unhandled special form %d", form)
}

// defineLocal adds or updates a binding in the innermost frame.
func (m *Machine) defineLocal(sym, val obj.Value, envS slot) {
	h := m.H
	frame := h.Car(m.get(envS))
	for b := frame; b.IsPair(); b = h.Cdr(b) {
		if h.Car(h.Car(b)) == sym {
			h.SetCdr(h.Car(b), val)
			return
		}
	}
	symS := m.slot(sym)
	valS := m.slot(val)
	bind := h.Cons(m.get(symS), m.get(valS))
	h.SetCar(m.get(envS), h.Cons(bind, h.Car(m.get(envS))))
}

// tailBody evaluates all but the last form of the body in bodyS and
// returns the last as the tail expression.
func (m *Machine) tailBody(bodyS, envS slot) (obj.Value, obj.Value, obj.Value, bool, error) {
	h := m.H
	if m.get(bodyS) == obj.Nil {
		return obj.Void, obj.Void, obj.Void, true, nil
	}
	for h.Cdr(m.get(bodyS)).IsPair() {
		if _, err := m.Eval(h.Car(m.get(bodyS)), m.get(envS)); err != nil {
			return obj.Void, obj.Void, obj.Void, false, err
		}
		m.set(bodyS, h.Cdr(m.get(bodyS)))
	}
	return h.Car(m.get(bodyS)), m.get(envS), obj.Void, false, nil
}

// namedLet implements (let name ((var init) ...) body ...).
func (m *Machine) namedLet(restS, envS slot) (obj.Value, obj.Value, obj.Value, bool, error) {
	h := m.H
	nameS := m.slot(h.Car(m.get(restS)))
	bindingsS := m.slot(h.Car(h.Cdr(m.get(restS))))
	bodyS := m.slot(h.Cdr(h.Cdr(m.get(restS))))

	// Collect formals and evaluate inits in the outer environment.
	formalsS := m.slot(obj.Nil)
	bIter := m.slot(m.get(bindingsS))
	argsBase := len(m.stack)
	nargs := 0
	for b := bIter; m.get(b).IsPair(); m.set(b, h.Cdr(m.get(b))) {
		bind := h.Car(m.get(b))
		if !bind.IsPair() || !h.Cdr(bind).IsPair() || !m.isSymbol(h.Car(bind)) {
			return obj.Void, obj.Void, obj.Void, false,
				fmt.Errorf("scheme: malformed named-let binding")
		}
		v, err := m.Eval(h.Car(h.Cdr(bind)), m.get(envS))
		if err != nil {
			return obj.Void, obj.Void, obj.Void, false, err
		}
		m.stack = append(m.stack, v)
		nargs++
		sym := h.Car(h.Car(m.get(b)))
		m.set(formalsS, h.Cons(sym, m.get(formalsS)))
	}
	// formals were accumulated in reverse; so were args? No: args are
	// in order on the stack; reverse the formals.
	revS := m.slot(obj.Nil)
	for p := m.get(formalsS); p.IsPair(); p = h.Cdr(p) {
		m.set(revS, h.Cons(h.Car(p), m.get(revS)))
	}
	// Closure whose environment contains its own name (letrec effect).
	selfBindS := m.slot(h.Cons(m.get(nameS), obj.Unbound))
	frame := h.Cons(m.get(selfBindS), obj.Nil)
	frameS := m.slot(frame)
	closEnv := h.Cons(m.get(frameS), m.get(envS))
	closEnvS := m.slot(closEnv)
	clause := h.Cons(m.get(revS), m.get(bodyS))
	clauseS := m.slot(clause)
	fn := m.makeRefClosure(h.Cons(m.get(clauseS), obj.Nil), m.get(closEnvS), m.get(nameS))
	h.SetCdr(m.get(selfBindS), fn)
	fnS := m.slot(fn)

	newEnv, body, err := m.bindClause(m.get(fnS), argsBase, nargs)
	if err != nil {
		return obj.Void, obj.Void, obj.Void, false, err
	}
	newEnvS := m.slot(newEnv)
	bS := m.slot(body)
	for h.Cdr(m.get(bS)).IsPair() {
		if _, err := m.Eval(h.Car(m.get(bS)), m.get(newEnvS)); err != nil {
			return obj.Void, obj.Void, obj.Void, false, err
		}
		m.set(bS, h.Cdr(m.get(bS)))
	}
	if m.get(bS) == obj.Nil {
		return obj.Void, obj.Void, obj.Void, true, nil
	}
	return h.Car(m.get(bS)), m.get(newEnvS), obj.Void, false, nil
}

// doLoop implements (do ((var init step) ...) (test result ...) body ...).
func (m *Machine) doLoop(restS, envS slot) (obj.Value, obj.Value, obj.Value, bool, error) {
	h := m.H
	if !m.get(restS).IsPair() || !h.Cdr(m.get(restS)).IsPair() {
		return obj.Void, obj.Void, obj.Void, false, fmt.Errorf("scheme: malformed do")
	}
	specsS := m.slot(h.Car(m.get(restS)))
	exitS := m.slot(h.Car(h.Cdr(m.get(restS))))
	bodyS := m.slot(h.Cdr(h.Cdr(m.get(restS))))

	// Initial frame.
	frameS := m.slot(obj.Nil)
	for s := m.slot(m.get(specsS)); m.get(s).IsPair(); m.set(s, h.Cdr(m.get(s))) {
		spec := h.Car(m.get(s))
		if !spec.IsPair() || !h.Cdr(spec).IsPair() || !m.isSymbol(h.Car(spec)) {
			return obj.Void, obj.Void, obj.Void, false, fmt.Errorf("scheme: malformed do binding")
		}
		v, err := m.Eval(h.Car(h.Cdr(spec)), m.get(envS))
		if err != nil {
			return obj.Void, obj.Void, obj.Void, false, err
		}
		vS := m.slot(v)
		sym := h.Car(h.Car(m.get(s)))
		m.set(frameS, h.Cons(h.Cons(sym, m.get(vS)), m.get(frameS)))
	}
	loopEnvS := m.slot(h.Cons(m.get(frameS), m.get(envS)))

	for iter := 0; ; iter++ {
		if iter > 1<<26 {
			return obj.Void, obj.Void, obj.Void, false, fmt.Errorf("scheme: do loop iteration limit")
		}
		iterBase := len(m.stack)
		m.safepoint()
		if err := m.burn(); err != nil {
			return obj.Void, obj.Void, obj.Void, false, err
		}
		if !m.get(exitS).IsPair() {
			return obj.Void, obj.Void, obj.Void, false, fmt.Errorf("scheme: malformed do exit clause")
		}
		t, err := m.Eval(h.Car(m.get(exitS)), m.get(loopEnvS))
		if err != nil {
			return obj.Void, obj.Void, obj.Void, false, err
		}
		if t.IsTruthy() {
			resS := m.slot(h.Cdr(m.get(exitS)))
			if m.get(resS) == obj.Nil {
				return obj.Void, obj.Void, obj.Void, true, nil
			}
			return m.tailBody(resS, loopEnvS)
		}
		for b := m.slot(m.get(bodyS)); m.get(b).IsPair(); m.set(b, h.Cdr(m.get(b))) {
			if _, err := m.Eval(h.Car(m.get(b)), m.get(loopEnvS)); err != nil {
				return obj.Void, obj.Void, obj.Void, false, err
			}
		}
		// Evaluate steps in the current loop env, then rebind.
		sIter := m.slot(m.get(specsS))
		stepBase := len(m.stack)
		nsteps := 0
		for s := sIter; m.get(s).IsPair(); m.set(s, h.Cdr(m.get(s))) {
			spec := h.Car(m.get(s))
			step := h.Cdr(h.Cdr(spec))
			var v obj.Value
			if step.IsPair() {
				v, err = m.Eval(h.Car(step), m.get(loopEnvS))
				if err != nil {
					return obj.Void, obj.Void, obj.Void, false, err
				}
			} else {
				v, err = m.lookup(h.Car(spec), m.get(loopEnvS))
				if err != nil {
					return obj.Void, obj.Void, obj.Void, false, err
				}
			}
			m.stack = append(m.stack, v)
			nsteps++
		}
		newFrameS := m.slot(obj.Nil)
		i := 0
		for s := m.slot(m.get(specsS)); m.get(s).IsPair(); m.set(s, h.Cdr(m.get(s))) {
			sym := h.Car(h.Car(m.get(s)))
			m.set(newFrameS, h.Cons(h.Cons(sym, m.stack[stepBase+i]), m.get(newFrameS)))
			i++
		}
		m.set(loopEnvS, h.Cons(m.get(newFrameS), m.get(envS)))
		m.stack = m.stack[:iterBase]
	}
}

// quasi expands a quasiquote template at the given nesting depth.
func (m *Machine) quasi(t, env obj.Value, depth int) (obj.Value, error) {
	h := m.H
	base := len(m.stack)
	defer func() { m.stack = m.stack[:base] }()
	tS := m.slot(t)
	envS := m.slot(env)

	isTagged := func(v obj.Value, name string) bool {
		return v.IsPair() && m.isSymbol(h.Car(v)) && h.Car(v) == m.Intern(name) &&
			h.Cdr(v).IsPair()
	}

	t = m.get(tS)
	switch {
	case isTagged(t, "unquote"):
		if depth == 1 {
			return m.Eval(h.Car(h.Cdr(t)), m.get(envS))
		}
		inner, err := m.quasi(h.Car(h.Cdr(m.get(tS))), m.get(envS), depth-1)
		if err != nil {
			return obj.Void, err
		}
		iS := m.slot(inner)
		return h.List(m.Intern("unquote"), m.get(iS)), nil
	case isTagged(t, "quasiquote"):
		inner, err := m.quasi(h.Car(h.Cdr(m.get(tS))), m.get(envS), depth+1)
		if err != nil {
			return obj.Void, err
		}
		iS := m.slot(inner)
		return h.List(m.Intern("quasiquote"), m.get(iS)), nil
	case t.IsPair():
		head := h.Car(t)
		if isTagged(head, "unquote-splicing") && depth == 1 {
			spliced, err := m.Eval(h.Car(h.Cdr(head)), m.get(envS))
			if err != nil {
				return obj.Void, err
			}
			sS := m.slot(spliced)
			rest, err := m.quasi(h.Cdr(m.get(tS)), m.get(envS), depth)
			if err != nil {
				return obj.Void, err
			}
			rS := m.slot(rest)
			return m.appendLists(sS, rS), nil
		}
		carV, err := m.quasi(h.Car(m.get(tS)), m.get(envS), depth)
		if err != nil {
			return obj.Void, err
		}
		cS := m.slot(carV)
		cdrV, err := m.quasi(h.Cdr(m.get(tS)), m.get(envS), depth)
		if err != nil {
			return obj.Void, err
		}
		dS := m.slot(cdrV)
		return h.Cons(m.get(cS), m.get(dS)), nil
	case h.IsKind(t, obj.KVector):
		n := h.VectorLength(t)
		outS := m.slot(h.MakeVector(n, obj.False))
		for i := 0; i < n; i++ {
			v, err := m.quasi(h.VectorRef(m.get(tS), i), m.get(envS), depth)
			if err != nil {
				return obj.Void, err
			}
			h.VectorSet(m.get(outS), i, v)
		}
		return m.get(outS), nil
	default:
		return t, nil
	}
}

// lexicallyBound reports whether sym has a binding in env's frames
// (used to let local variables shadow special-form keywords).
func (m *Machine) lexicallyBound(sym, env obj.Value) bool {
	h := m.H
	for e := env; e.IsPair(); e = h.Cdr(e) {
		for b := h.Car(e); b.IsPair(); b = h.Cdr(b) {
			if h.Car(h.Car(b)) == sym {
				return true
			}
		}
	}
	return false
}

func (m *Machine) lookup(sym, env obj.Value) (obj.Value, error) {
	h := m.H
	for e := env; e.IsPair(); e = h.Cdr(e) {
		for b := h.Car(e); b.IsPair(); b = h.Cdr(b) {
			bind := h.Car(b)
			if h.Car(bind) == sym {
				v := h.Cdr(bind)
				if v == obj.Unbound {
					return obj.Void, fmt.Errorf("scheme: %s used before initialization", h.SymbolString(sym))
				}
				return v, nil
			}
		}
	}
	v := h.SymbolValue(sym)
	if v == obj.Unbound {
		return obj.Void, fmt.Errorf("scheme: unbound variable %s", h.SymbolString(sym))
	}
	return v, nil
}

func (m *Machine) assign(sym, val, env obj.Value) error {
	h := m.H
	for e := env; e.IsPair(); e = h.Cdr(e) {
		for b := h.Car(e); b.IsPair(); b = h.Cdr(b) {
			bind := h.Car(b)
			if h.Car(bind) == sym {
				h.SetCdr(bind, val)
				return nil
			}
		}
	}
	if h.SymbolValue(sym) == obj.Unbound {
		return fmt.Errorf("scheme: set! of unbound variable %s", h.SymbolString(sym))
	}
	h.SetSymbolValue(sym, val)
	return nil
}

// Eval evaluates expr in env (obj.Nil is the global environment).
func (m *Machine) Eval(expr, env obj.Value) (v obj.Value, err error) {
	m.depth++
	defer func() { m.depth-- }()
	if m.depth > maxEvalDepth {
		return obj.Void, fmt.Errorf("scheme: evaluation depth exceeded (non-tail recursion too deep)")
	}
	h := m.H
	base := len(m.stack)
	defer func() { m.stack = m.stack[:base] }()
	eExpr := m.slot(expr)
	eEnv := m.slot(env)

	for {
		m.safepoint()
		if err := m.burn(); err != nil {
			return obj.Void, err
		}
		expr, env = m.get(eExpr), m.get(eEnv)
		switch {
		case m.isSymbol(expr):
			return m.lookup(expr, env)
		case !expr.IsPair():
			return expr, nil // self-evaluating
		}
		head := h.Car(expr)
		if form, ok := m.specialFormOf(head); ok && !m.lexicallyBound(head, env) {
			tailExpr, tailEnv, result, done, ferr := m.evalForm(form, expr, env)
			if ferr != nil {
				return obj.Void, ferr
			}
			if done {
				return result, nil
			}
			m.set(eExpr, tailExpr)
			m.set(eEnv, tailEnv)
			m.stack = m.stack[:base+2]
			continue
		}

		// Application: evaluate operator, then operands left to right.
		fnS := m.slot(obj.Void)
		fv, err := m.Eval(h.Car(m.get(eExpr)), m.get(eEnv))
		if err != nil {
			return obj.Void, err
		}
		m.set(fnS, fv)
		restS := m.slot(h.Cdr(m.get(eExpr)))
		argsBase := len(m.stack)
		for m.get(restS).IsPair() {
			av, err := m.Eval(h.Car(m.get(restS)), m.get(eEnv))
			if err != nil {
				return obj.Void, err
			}
			m.stack = append(m.stack, av)
			m.set(restS, h.Cdr(m.get(restS)))
		}
		if m.get(restS) != obj.Nil {
			return obj.Void, m.errf(m.get(eExpr), "improper argument list")
		}
		n := len(m.stack) - argsBase
		fn := m.get(fnS)
		if m.isContinuation(fn) {
			var val obj.Value = obj.Void
			if n >= 1 {
				val = m.stack[argsBase]
			}
			return m.invokeContinuation(fn, val)
		}
		if m.isCompiledClosure(fn) {
			return m.applyCompiled(fn, argsBase, n)
		}
		if fn.IsPrim() {
			return m.callPrimIndex(fn.PrimIndex(), Args{m: m, base: argsBase, n: n})
		}
		if !m.isReference(fn) {
			return obj.Void, m.errf(fn, "attempt to apply non-procedure")
		}
		newEnv, body, err := m.bindClause(fn, argsBase, n)
		if err != nil {
			return obj.Void, err
		}
		// Evaluate all but the last body form, then loop on the last
		// (proper tail call).
		last, err := m.evalBodyButLast(body, newEnv, eExpr, eEnv)
		if err != nil {
			return obj.Void, err
		}
		if last {
			return obj.Void, nil // empty body
		}
		m.stack = m.stack[:base+2]
	}
}

// evalBodyButLast evaluates every body form except the last, then
// stores the last form and env into the caller's expr/env slots. It
// reports true when the body was empty. body and env must be passed
// rooted via fresh slots inside.
func (m *Machine) evalBodyButLast(body, env obj.Value, eExpr, eEnv slot) (empty bool, err error) {
	h := m.H
	if body == obj.Nil {
		return true, nil
	}
	bS := m.slot(body)
	envS := m.slot(env)
	for h.Cdr(m.get(bS)).IsPair() {
		if _, err := m.Eval(h.Car(m.get(bS)), m.get(envS)); err != nil {
			return false, err
		}
		m.set(bS, h.Cdr(m.get(bS)))
	}
	m.set(eExpr, h.Car(m.get(bS)))
	m.set(eEnv, m.get(envS))
	return false, nil
}

// makeRefClosure allocates a reference closure: a record [clauses,
// env, name] tagged %reference-closure, a compiled closure's layout
// with a clause list in place of the code. A clause is a pair (formals
// . body); case-lambda closures carry several. Allocation never
// collects, so nothing needs rooting here.
func (m *Machine) makeRefClosure(clauses, env, name obj.Value) obj.Value {
	rec := m.H.MakeRecord(m.Intern("%reference-closure"), 3)
	m.H.RecordSet(rec, 0, clauses)
	m.H.RecordSet(rec, 1, env)
	m.H.RecordSet(rec, 2, name)
	return rec
}

// bindClause selects the closure clause matching the argument count
// and builds the new environment frame. Arguments are read from the
// shadow stack.
func (m *Machine) bindClause(fn obj.Value, argsBase, n int) (env, body obj.Value, err error) {
	h := m.H
	fnS := m.slot(fn)
	for cl := m.slot(h.RecordRef(fn, 0)); m.get(cl).IsPair(); m.set(cl, h.Cdr(m.get(cl))) {
		clause := h.Car(m.get(cl))
		formals := h.Car(clause)
		req, rest := 0, false
		for f := formals; ; {
			if f.IsPair() {
				req++
				f = h.Cdr(f)
				continue
			}
			rest = f != obj.Nil
			break
		}
		if n < req || (!rest && n != req) {
			continue
		}
		// Build the frame: one binding per formal, then the rest list.
		frameS := m.slot(obj.Nil)
		fS := m.slot(h.Car(h.Car(m.get(cl)))) // formals, re-read rooted
		for i := 0; i < req; i++ {
			sym := h.Car(m.get(fS))
			bind := h.Cons(sym, m.stack[argsBase+i])
			m.set(frameS, h.Cons(bind, m.get(frameS)))
			m.set(fS, h.Cdr(m.get(fS)))
		}
		if rest {
			restList := m.slot(obj.Nil)
			for i := n - 1; i >= req; i-- {
				m.set(restList, h.Cons(m.stack[argsBase+i], m.get(restList)))
			}
			bind := h.Cons(m.get(fS), m.get(restList))
			m.set(frameS, h.Cons(bind, m.get(frameS)))
		}
		clause = h.Car(m.get(cl)) // re-read after allocations
		newEnv := h.Cons(m.get(frameS), h.RecordRef(m.get(fnS), 1))
		return newEnv, h.Cdr(clause), nil
	}
	return obj.Void, obj.Void, fmt.Errorf(
		"scheme: no matching clause for %d arguments in %s", n, m.WriteString(m.get(fnS)))
}

// evalBody evaluates a body sequence and returns the last value.
func (m *Machine) evalBody(body, env obj.Value) (obj.Value, error) {
	h := m.H
	base := len(m.stack)
	defer func() { m.stack = m.stack[:base] }()
	bS := m.slot(body)
	envS := m.slot(env)
	result := m.slot(obj.Void)
	for m.get(bS).IsPair() {
		v, err := m.Eval(h.Car(m.get(bS)), m.get(envS))
		if err != nil {
			return obj.Void, err
		}
		m.set(result, v)
		m.set(bS, h.Cdr(m.get(bS)))
	}
	return m.get(result), nil
}

// RefEvalString reads and evaluates every form in src on the reference
// evaluator, returning the last value. The returned value is valid until the next collection; root
// it if it must live longer. Panics from malformed programs reaching
// heap accessors (for example taking the car of a non-pair deep inside
// a special form) are converted to errors at this boundary.
func (m *Machine) RefEvalString(src string) (v obj.Value, err error) {
	stackBase, depthBase := len(m.stack), m.depth
	defer func() {
		if r := recover(); r != nil {
			m.stack = m.stack[:stackBase]
			m.depth = depthBase
			v, err = obj.Void, fmt.Errorf("scheme: %v", r)
		}
	}()
	return m.refEvalString(src)
}

func (m *Machine) refEvalString(src string) (obj.Value, error) {
	forms, err := m.ReadAll(src)
	if err != nil {
		return obj.Void, err
	}
	base := len(m.stack)
	defer func() { m.stack = m.stack[:base] }()
	m.stack = append(m.stack, forms...)
	resS := m.slot(obj.Void)
	for i := range forms {
		v, err := m.Eval(m.stack[base+i], obj.Nil)
		if err != nil {
			return obj.Void, err
		}
		m.set(resS, v)
	}
	return m.get(resS), nil
}

// TestReferenceRunsNoCompiledCode: a reference machine's prelude is
// interpreted closures, and New's is compiled closures.
func TestReferenceRunsNoCompiledCode(t *testing.T) {
	r, m := NewReference(heap.NewDefault(), nil), New(heap.NewDefault(), nil)
	for _, name := range []string{"map", "for-each", "make-guardian", "fold-left"} {
		if v := r.H.SymbolValue(r.Intern(name)); !r.isReference(v) {
			t.Errorf("reference %s is %s, not an interpreted closure", name, r.WriteString(v))
		}
		if v := m.H.SymbolValue(m.Intern(name)); !m.isCompiledClosure(v) {
			t.Errorf("%s is %s, not a compiled closure", name, m.WriteString(v))
		}
	}
	v, err := r.RefEvalString("(map (lambda (x) (+ x 1)) '(1 2))")
	if err != nil || r.WriteString(v) != "(2 3)" || len(r.vmFrames) != 0 {
		t.Fatalf("reference map = %v, %v", r.WriteString(v), err)
	}
}
