package scheme

import (
	"fmt"
	"sync"

	"repro/internal/obj"
)

// This file implements the bytecode compiler, the front half of the
// machine's one execution engine (the VM in vm.go is the other). The
// paper's host system (Chez Scheme) is a compiler. Closures,
// environments, constants and the compiled code itself are all heap
// values, so running code drives the collector. The package's tests
// keep a tree-walking reference evaluator of the same language and
// check the VM against it.
//
// Derived forms (cond, case, and, or, when, unless, let, let*, letrec,
// named let, do, quasiquote) are desugared into the core language
// (quote, if, lambda, case-lambda, begin, define, set!, application)
// before code generation. A lambda clause whose variables no nested
// lambda refers to keeps its frame on the VM's value stack, its slots
// addressed by index from the frame's base; a captured clause's frame
// is a heap vector [parent, slot0, slot1, ...], and compiled
// environments are chains of those, addressed by lexical (depth,
// index) pairs computed at compile time — depth counting heap frames
// only — rather than the reference evaluator's association-list frames.

// Op is a bytecode opcode.
type Op uint8

// Opcodes. A and B are immediate operands; the value stack is the
// machine's shadow stack, so every intermediate is a collector root.
const (
	OpConst       Op = iota // push consts[A]
	OpVoid                  // push #<void>
	OpLocal                 // push heap-frame value at depth A, index B
	OpSetLocal              // pop into heap frame at depth A, index B; push #<void>
	OpGlobal                // push global value of symbol consts[A]
	OpSetGlobal             // pop into global cell of consts[A]; push #<void>
	OpDefGlobal             // pop, define global consts[A]; push #<void>
	OpClosure               // push compiled closure over code object consts[A], current env
	OpJump                  // pc = A
	OpJumpIfFalse           // pop; if false, pc = A
	OpCall                  // call with A args: stack [.. fn a1..aA]
	OpTailCall              // tail call with A args
	OpReturn                // return top of stack
	OpPop                   // drop top of stack
	OpArg                   // push stack-frame slot A
	OpSetArg                // pop into stack-frame slot A; push #<void>
)

var opNames = [...]string{
	"const", "void", "local", "set-local", "global", "set-global",
	"def-global", "closure", "jump", "jump-if-false", "call",
	"tail-call", "return", "pop", "arg", "set-arg",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one decoded instruction. A code object stores it as one
// fixnum: the opcode in the low byte, A in the next 32 bits, B in the
// 20 above.
type Instr struct {
	Op   Op
	A, B int
}

const (
	maxOperandA = 1<<32 - 1
	maxOperandB = 1<<20 - 1
)

func (in Instr) word() obj.Value {
	return obj.FromFixnum(int64(in.Op) | int64(in.A)<<8 | int64(in.B)<<40)
}

func decode(v obj.Value) Instr {
	w := v.FixnumValue()
	return Instr{Op: Op(w), A: int(w >> 8 & maxOperandA), B: int(w >> 40 & maxOperandB)}
}

// A code object is one compiled procedure body (one clause of a lambda
// or case-lambda, or a top-level form), and it is ordinary heap data:
// a vector [instrs, shape, const0, const1, ...]. instrs is a vector
// holding one fixnum per instruction; shape is a fixnum (codeShape);
// the constants are the quoted data, global symbols and nested code
// objects the instructions index. A case-lambda entry has #f for instrs
// and its clauses' code objects for constants. Nothing else holds
// compiled code: a compiled closure [code, env, name] and the VM frames
// running it reach a code object, and once none does the collector
// reclaims it like any other garbage.
//
// The instructions are fixnums in the object space rather than a
// bytevector in the data space so that code adds no space to a
// session's heap: a data-space segment per generation, and the
// generation-0 trigger's charge for opening one after every
// collection, cost more than sweeping a few tagged words does.
const (
	instrsSlot = iota // the instruction vector
	shapeSlot         // the shape fixnum
	constsSlot        // constant 0
)

// codeKind names what a code object was compiled from.
type codeKind uint8

const (
	kindTop codeKind = iota
	kindLambda
	kindCaseLambda // an entry: selects one of its clauses
	kindClause     // one clause of a case-lambda
)

var codeKindNames = [...]string{"top", "lambda", "case-lambda", "case-lambda-clause"}

// codeShape is what a call needs to know about a code object before
// running it, packed into its shape fixnum.
type codeShape struct {
	kind   codeKind
	rest   bool // accepts a rest list
	stack  bool // the frame lives on the value stack (no lambda captures it)
	nreq   int  // required parameters
	nslots int  // frame slots: params (+ rest) + internal defines
}

const (
	maxShapeCount = 1<<24 - 1
	shapeRest     = 1 << 2
	shapeStack    = 1 << 51 // clear on code compiled before frames could live on the stack
)

func (s codeShape) fixnum() obj.Value {
	v := int64(s.kind) | int64(s.nreq)<<3 | int64(s.nslots)<<27
	if s.rest {
		v |= shapeRest
	}
	if s.stack {
		v |= shapeStack
	}
	return obj.FromFixnum(v)
}

func shapeOf(v obj.Value) codeShape {
	x := v.FixnumValue()
	return codeShape{
		kind:   codeKind(x & 3),
		rest:   x&shapeRest != 0,
		stack:  x&shapeStack != 0,
		nreq:   int(x >> 3 & maxShapeCount),
		nslots: int(x >> 27 & maxShapeCount),
	}
}

func (s codeShape) accepts(n int) bool { return n >= s.nreq && (s.rest || n == s.nreq) }

// compileScratch is a reusable compile workspace, so that compiling a
// request costs no Go allocation once it has warmed up. The code
// objects being built form a stack — a nested lambda is compiled while
// its parent is open, above it — and each compiler keeps its
// instructions and slots contiguous on these stacks, truncating them
// back when its code object is built. Slots hold heap values that no
// root visits; that is safe because compilation allocates but never
// collects. A machine holds one only while it compiles: the scratches
// are pooled across machines, so a standing session keeps none.
//
// A form is compiled twice. The marking pass only finds which lambda
// clauses a nested lambda captures, recording a bit per clause in the
// order the clauses are entered; it builds no code object and keeps
// every expression it derives (desugar, a procedure define's lambda) in
// the same order. The emitting pass enters the clauses and derives the
// expressions in that order again, so it reads each clause's placement
// by position and takes the derived expressions back instead of
// building them anew: the marking pass leaves nothing on the heap.
type compileScratch struct {
	instrs []Instr
	slots  []obj.Value // per open code: instrs, shape, constants...
	names  []obj.Value // the variables of every open lexical frame
	words  []obj.Value // the encoding of the code being built

	marking  bool
	captured []bool      // per clause, in entry order: a nested lambda refers to its frame
	derived  []obj.Value // expressions the marking pass derived, in order
	nclause  int         // emitting pass: clauses entered so far
	nderived int         // emitting pass: derived expressions taken back so far
}

var scratchPool = sync.Pool{New: func() any { return new(compileScratch) }}

// cenv is the compile-time environment: one frame of variable symbols
// per enclosing lambda clause. Symbols compare by identity: compilation
// never collects, so none moves or is pruned meanwhile.
type cenv struct {
	names  []obj.Value
	parent *cenv
	clause int  // the clause's entry index (compileScratch.captured)
	heap   bool // emitting pass: the frame is a heap vector
}

// lookup finds sym's frame, depth frames out, and its index there.
func (e *cenv) lookup(sym obj.Value) (f *cenv, depth, index int, ok bool) {
	for f = e; f != nil; f = f.parent {
		for i, n := range f.names {
			if n == sym {
				return f, depth, i, true
			}
		}
		depth++
	}
	return nil, 0, 0, false
}

// compiler accumulates one code object on the machine's scratch:
// instructions from m.cs.instrs[ilo], slots from m.cs.slots[klo].
type compiler struct {
	m        *Machine
	ilo, klo int
}

// openCode starts a code object on top of the scratch stacks.
func (m *Machine) openCode() compiler {
	c := compiler{m: m, ilo: len(m.cs.instrs), klo: len(m.cs.slots)}
	m.cs.slots = append(m.cs.slots, obj.False, obj.False) // instrs, shape
	return c
}

func (c *compiler) emit(op Op, a, b int) int {
	c.m.cs.instrs = append(c.m.cs.instrs, Instr{Op: op, A: a, B: b})
	return c.pc() - 1
}

// pc is the index the next emitted instruction gets.
func (c *compiler) pc() int { return len(c.m.cs.instrs) - c.ilo }

func (c *compiler) patch(at int, target int) { c.m.cs.instrs[c.ilo+at].A = target }

func (c *compiler) constIdx(v obj.Value) int {
	consts := c.m.cs.slots[c.klo+constsSlot:]
	for i, k := range consts {
		if k == v {
			return i
		}
	}
	c.m.cs.slots = append(c.m.cs.slots, v)
	return len(consts)
}

// finish builds the heap code object from the scratch and pops it (in
// the marking pass, only pops it).
func (c *compiler) finish(shape codeShape) (obj.Value, error) {
	m := c.m
	cs := m.cs
	ins, slots := cs.instrs[c.ilo:], cs.slots[c.klo:]
	cs.instrs, cs.slots = cs.instrs[:c.ilo], cs.slots[:c.klo]
	if shape.nreq > maxShapeCount || shape.nslots > maxShapeCount || len(slots) > maxOperandA {
		return obj.Void, fmt.Errorf("compile: procedure too large")
	}
	if cs.marking {
		return obj.False, nil
	}
	slots[shapeSlot] = shape.fixnum()
	if shape.kind != kindCaseLambda {
		optimize(ins)
		words := cs.words[:0]
		for _, in := range ins {
			if in.A > maxOperandA || in.B > maxOperandB {
				return obj.Void, fmt.Errorf("compile: procedure too large")
			}
			words = append(words, in.word())
		}
		cs.words = words
		slots[instrsSlot] = m.H.Vector(words...)
	}
	return m.H.Vector(slots...), nil
}

func (c *compiler) errf(expr obj.Value, format string, args ...any) error {
	return fmt.Errorf("compile: %s: %s", fmt.Sprintf(format, args...), c.m.WriteString(expr))
}

// CompileTop compiles a top-level form into a zero-argument code
// object. Compilation allocates heap values (desugaring builds
// expressions, and the code objects are heap data) but never collects,
// so no rooting is needed during compilation; the result is valid
// until the next collection, and is garbage once nothing runs it.
// Compilation runs no Scheme code, so it never re-enters CompileTop.
// It makes two passes over expr, marking then emitting (see
// compileScratch); the marking pass allocates nothing on the heap.
func (m *Machine) CompileTop(expr obj.Value) (obj.Value, error) {
	m.cs = scratchPool.Get().(*compileScratch)
	defer m.releaseScratch()
	m.cs.marking = true
	if _, err := m.compileTopPass(expr); err != nil {
		return obj.Void, err
	}
	m.cs.marking = false
	return m.compileTopPass(expr)
}

// compileTopPass makes one pass of CompileTop.
func (m *Machine) compileTopPass(expr obj.Value) (obj.Value, error) {
	c := m.openCode()
	if err := c.compile(expr, nil, true); err != nil {
		return obj.Void, err
	}
	c.emit(OpReturn, 0, 0)
	return c.finish(codeShape{kind: kindTop})
}

// releaseScratch empties the machine's compile scratch and returns it
// to the pool.
func (m *Machine) releaseScratch() {
	cs := m.cs
	m.cs = nil
	cs.instrs, cs.slots, cs.names = cs.instrs[:0], cs.slots[:0], cs.names[:0]
	cs.captured, cs.derived, cs.nclause, cs.nderived = cs.captured[:0], cs.derived[:0], 0, 0
	scratchPool.Put(cs)
}

// derive returns an expression derived from the source: built by build
// and kept in the marking pass, taken back in the emitting pass.
func (c *compiler) derive(build func() (obj.Value, error)) (obj.Value, error) {
	cs := c.m.cs
	if !cs.marking {
		v := cs.derived[cs.nderived]
		cs.nderived++
		return v, nil
	}
	v, err := build()
	if err == nil {
		cs.derived = append(cs.derived, v)
	}
	return v, err
}

// variable emits the read of a variable found depth frames out at index
// i of frame f, or with set the store of the top of the stack into it.
// A reference from a nested lambda marks f's clause captured; in the
// emitting pass, then, only the current frame can be on the stack, and
// a heap frame's depth counts the heap frames in between.
func (c *compiler) variable(env, f *cenv, depth, i int, set bool) {
	cs := c.m.cs
	if cs.marking && depth > 0 {
		cs.captured[f.clause] = true
	}
	if !f.heap {
		if set {
			c.emit(OpSetArg, i, 0)
		} else {
			c.emit(OpArg, i, 0)
		}
		return
	}
	d := 0
	for e := env; e != f; e = e.parent {
		if e.heap {
			d++
		}
	}
	if set {
		c.emit(OpSetLocal, d, i)
	} else {
		c.emit(OpLocal, d, i)
	}
}

// compile compiles expr in compile-time environment env; tail marks
// tail position.
func (c *compiler) compile(expr obj.Value, env *cenv, tail bool) error {
	m := c.m
	h := m.H
	switch {
	case m.isSymbol(expr):
		if f, d, i, ok := env.lookupFrom(expr); ok {
			c.variable(env, f, d, i, false)
		} else {
			c.emit(OpGlobal, c.constIdx(expr), 0)
		}
		return nil
	case !expr.IsPair():
		c.emit(OpConst, c.constIdx(expr), 0)
		return nil
	}

	head := h.Car(expr)
	if form, ok := m.specialFormOf(head); ok && !c.shadowed(head, env) {
		return c.compileForm(form, expr, env, tail)
	}

	// Application.
	n := 0
	if err := c.compile(h.Car(expr), env, false); err != nil {
		return err
	}
	for p := h.Cdr(expr); ; p = h.Cdr(p) {
		if p == obj.Nil {
			break
		}
		if !p.IsPair() {
			return c.errf(expr, "improper argument list")
		}
		if err := c.compile(h.Car(p), env, false); err != nil {
			return err
		}
		n++
	}
	if tail {
		c.emit(OpTailCall, n, 0)
	} else {
		c.emit(OpCall, n, 0)
	}
	return nil
}

// lookupFrom is lookup on a possibly-nil cenv.
func (e *cenv) lookupFrom(sym obj.Value) (*cenv, int, int, bool) {
	if e == nil {
		return nil, 0, 0, false
	}
	return e.lookup(sym)
}

// shadowed reports whether a keyword symbol is bound as a variable in
// the compile-time environment (matching the reference evaluator's rule).
func (c *compiler) shadowed(sym obj.Value, env *cenv) bool {
	_, _, _, ok := env.lookupFrom(sym)
	return ok
}

func (c *compiler) compileForm(form formID, expr obj.Value, env *cenv, tail bool) error {
	m := c.m
	h := m.H
	rest := h.Cdr(expr)
	operand := func(i int) obj.Value {
		p := rest
		for ; i > 0; i-- {
			p = h.Cdr(p)
		}
		return h.Car(p)
	}
	need := func(n int) bool {
		p := rest
		for i := 0; i < n; i++ {
			if !p.IsPair() {
				return false
			}
			p = h.Cdr(p)
		}
		return true
	}

	switch form {
	case fQuote:
		if !need(1) {
			return c.errf(expr, "malformed quote")
		}
		c.emit(OpConst, c.constIdx(operand(0)), 0)
		return nil

	case fIf:
		if !need(2) {
			return c.errf(expr, "malformed if")
		}
		if err := c.compile(operand(0), env, false); err != nil {
			return err
		}
		jf := c.emit(OpJumpIfFalse, 0, 0)
		if err := c.compile(operand(1), env, tail); err != nil {
			return err
		}
		jEnd := c.emit(OpJump, 0, 0)
		c.patch(jf, c.pc())
		if need(3) {
			if err := c.compile(operand(2), env, tail); err != nil {
				return err
			}
		} else {
			c.emit(OpVoid, 0, 0)
		}
		c.patch(jEnd, c.pc())
		return nil

	case fDefine:
		if !need(1) {
			return c.errf(expr, "malformed define")
		}
		target := operand(0)
		var name obj.Value
		var valExpr obj.Value
		if target.IsPair() {
			// (define (f . formals) body...) => (define f (lambda formals body...))
			name = h.Car(target)
			valExpr, _ = c.derive(func() (obj.Value, error) {
				return h.Cons(m.keywords[fLambda], h.Cons(h.Cdr(target), h.Cdr(rest))), nil
			})
		} else {
			name = target
			if need(2) {
				valExpr = operand(1)
			} else {
				valExpr = obj.Void
			}
		}
		if !m.isSymbol(name) {
			return c.errf(expr, "define of non-symbol")
		}
		if err := c.compile(valExpr, env, false); err != nil {
			return err
		}
		if f, d, i, ok := env.lookupFrom(name); ok {
			c.variable(env, f, d, i, true)
		} else if env != nil {
			return c.errf(expr, "internal define of %s not at body start", h.SymbolString(name))
		} else {
			c.emit(OpDefGlobal, c.constIdx(name), 0)
		}
		return nil

	case fSet:
		if !need(2) || !m.isSymbol(operand(0)) {
			return c.errf(expr, "malformed set!")
		}
		if err := c.compile(operand(1), env, false); err != nil {
			return err
		}
		if f, d, i, ok := env.lookupFrom(operand(0)); ok {
			c.variable(env, f, d, i, true)
		} else {
			c.emit(OpSetGlobal, c.constIdx(operand(0)), 0)
		}
		return nil

	case fLambda:
		if !need(1) {
			return c.errf(expr, "malformed lambda")
		}
		code, err := c.compileLambdaClause(operand(0), h.Cdr(rest), env, kindLambda)
		if err != nil {
			return err
		}
		c.emit(OpClosure, c.constIdx(code), 0)
		return nil

	case fCaseLambda:
		// The entry's constants are its clauses, each built above it on
		// the scratch and then pushed as the entry's next constant.
		entry := m.openCode()
		for p := rest; p.IsPair(); p = h.Cdr(p) {
			cl := h.Car(p)
			if !cl.IsPair() {
				return c.errf(expr, "malformed case-lambda clause")
			}
			code, err := c.compileLambdaClause(h.Car(cl), h.Cdr(cl), env, kindClause)
			if err != nil {
				return err
			}
			m.cs.slots = append(m.cs.slots, code)
		}
		code, err := entry.finish(codeShape{kind: kindCaseLambda})
		if err != nil {
			return err
		}
		c.emit(OpClosure, c.constIdx(code), 0)
		return nil

	case fBegin:
		return c.compileBody(rest, env, tail)

	default:
		// Every other form is desugared to the core language.
		desugared, err := c.derive(func() (obj.Value, error) { return m.desugar(form, expr) })
		if err != nil {
			return err
		}
		return c.compile(desugared, env, tail)
	}
}

// compileBody compiles a body sequence (non-empty for lambda bodies;
// an empty begin yields void).
func (c *compiler) compileBody(body obj.Value, env *cenv, tail bool) error {
	h := c.m.H
	if body == obj.Nil {
		c.emit(OpVoid, 0, 0)
		return nil
	}
	for p := body; p.IsPair(); p = h.Cdr(p) {
		last := h.Cdr(p) == obj.Nil
		if err := c.compile(h.Car(p), env, tail && last); err != nil {
			return err
		}
		if !last {
			c.emit(OpPop, 0, 0)
		}
	}
	return nil
}

// compileLambdaClause compiles one (formals . body) clause into a code
// object.
func (c *compiler) compileLambdaClause(formals, body obj.Value, env *cenv, kind codeKind) (obj.Value, error) {
	m := c.m
	h := m.H
	shape := codeShape{kind: kind}
	nlo := len(m.cs.names)
	// A formal named twice is bound to the later argument, as the
	// reference evaluator binds it: the earlier slot keeps its
	// argument under a name no symbol matches.
	formal := func(sym obj.Value) {
		for i, n := range m.cs.names[nlo:] {
			if n == sym {
				m.cs.names[nlo+i] = obj.Void
			}
		}
		m.cs.names = append(m.cs.names, sym)
	}
	f := formals
	for f.IsPair() {
		if !m.isSymbol(h.Car(f)) {
			return obj.Void, c.errf(formals, "non-symbol formal")
		}
		formal(h.Car(f))
		shape.nreq++
		f = h.Cdr(f)
	}
	if f != obj.Nil {
		if !m.isSymbol(f) {
			return obj.Void, c.errf(formals, "non-symbol rest formal")
		}
		formal(f)
		shape.rest = true
	}
	// Internal defines at the head of the body get frame slots
	// (letrec* semantics: they are in scope throughout the body).
	for p := body; p.IsPair(); p = h.Cdr(p) {
		e := h.Car(p)
		if !e.IsPair() {
			break
		}
		if form, ok := m.specialFormOf(h.Car(e)); !ok || form != fDefine {
			break
		}
		target := h.Car(h.Cdr(e))
		var dn obj.Value
		if target.IsPair() {
			dn = h.Car(target)
		} else {
			dn = target
		}
		if !m.isSymbol(dn) {
			return obj.Void, c.errf(e, "define of non-symbol")
		}
		m.cs.names = append(m.cs.names, dn)
	}
	shape.nslots = len(m.cs.names) - nlo
	// The clause's placement: the marking pass records its entry, the
	// emitting pass reads what the marking pass found.
	cs := m.cs
	newEnv := &cenv{names: cs.names[nlo:], parent: env}
	if cs.marking {
		newEnv.clause = len(cs.captured)
		cs.captured = append(cs.captured, false)
	} else {
		newEnv.clause = cs.nclause
		cs.nclause++
		newEnv.heap = cs.captured[newEnv.clause]
	}
	sub := m.openCode()
	if err := sub.compileBody(body, newEnv, true); err != nil {
		return obj.Void, err
	}
	sub.emit(OpReturn, 0, 0)
	m.cs.names = m.cs.names[:nlo]
	shape.stack = !newEnv.heap
	return sub.finish(shape)
}
