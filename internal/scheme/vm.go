package scheme

import (
	"fmt"

	"repro/internal/obj"
)

// The stack VM executing compiled code objects. Its value stack is the
// machine's shadow stack and its call frames' code objects and
// environments are visited as roots, so collections may happen at VM
// safe points (calls and backward jumps) with every live value
// accounted for. Compiled code calls primitives and continuations
// directly; primitives that take procedures (apply, call/cc,
// dynamic-wind) call back into it through Apply.

// maxVMFrames bounds the VM's frame stack: non-tail recursion that
// deep becomes an error instead of growing without limit.
const maxVMFrames = 100000

// vmFrame is one activation of compiled code. A stack frame's slots
// are the value stack's words from base on, below its operands; a heap
// frame's are in the vector env. Either way the collector sees them as
// roots, the value stack being one.
type vmFrame struct {
	code  obj.Value // the code object running: a root, like env
	shape codeShape // code's shape, kept for a self tail call
	pc    int
	env   obj.Value // the innermost heap frame: [parent, slot0, ...], or Nil
	base  int       // value-stack floor for this activation
}

func (m *Machine) isCompiledClosure(v obj.Value) bool {
	return m.H.IsKind(v, obj.KRecord) && m.H.RecordRTD(v) == m.keywords[kwCompiledClosure]
}

// makeCompiledClosure allocates a compiled closure record [code, env,
// name]; the name is #f until a define names it. Allocation never
// collects, so code and env need no rooting here.
func (m *Machine) makeCompiledClosure(code, env obj.Value) obj.Value {
	rec := m.H.MakeRecord(m.keywords[kwCompiledClosure], 3)
	m.H.RecordSet(rec, 0, code)
	m.H.RecordSet(rec, 1, env)
	return rec
}

// selectClause picks the code object that runs a call of code with n
// arguments — code itself, or a case-lambda entry's first matching
// clause — and its shape.
func (m *Machine) selectClause(code obj.Value, n int) (obj.Value, codeShape, bool) {
	h := m.H
	s := shapeOf(h.VectorRef(code, shapeSlot))
	if s.kind != kindCaseLambda {
		return code, s, s.accepts(n)
	}
	for i := constsSlot; i < h.VectorLength(code); i++ {
		cl := h.VectorRef(code, i)
		if cs := shapeOf(h.VectorRef(cl, shapeSlot)); cs.accepts(n) {
			return cl, cs, true
		}
	}
	return obj.Void, codeShape{}, false
}

// layFrame lays a call's frame slots out on the value stack from base:
// the required arguments, which sit with the rest at from (from >=
// base), moved down, then the rest list, then the internal defines'
// slots, Unbound so that use before initialization is caught. The
// stack ends with the slots.
func (m *Machine) layFrame(s codeShape, base, from, n int) {
	copy(m.stack[base:], m.stack[from:from+s.nreq])
	top := base + s.nreq
	if s.rest {
		restList := obj.Value(obj.Nil)
		for i := n - 1; i >= s.nreq; i-- {
			restList = m.H.Cons(m.stack[from+i], restList)
		}
		m.stack = append(m.stack[:top], restList)
		top++
	}
	m.stack = m.stack[:top]
	for ; top < base+s.nslots; top++ {
		m.stack = append(m.stack, obj.Unbound)
	}
}

// enterFrame sets up the frame of a call to clause shape s of a
// closure over env, whose callee sits at m.stack[fnIdx] with its n
// arguments above it, and returns the frame's environment. The frame's
// value stack starts at base: fnIdx for a call, the caller's base for a
// tail call. A stack frame's slots are laid out from base and its
// environment is env. A heap frame is the vector [env, slots...],
// filled through one allocation window from the slots laid out over
// the callee, and the stack is cut back to base.
func (m *Machine) enterFrame(s codeShape, env obj.Value, base, fnIdx, n int) obj.Value {
	if s.stack {
		m.layFrame(s, base, fnIdx+1, n)
		return env
	}
	m.layFrame(s, fnIdx+1, fnIdx+1, n)
	m.stack[fnIdx] = env
	fv := m.H.Vector(m.stack[fnIdx:]...)
	m.stack = m.stack[:base]
	return fv
}

// RunCode executes a compiled top-level code object and returns its
// value.
func (m *Machine) RunCode(code obj.Value) (obj.Value, error) {
	return m.execute(code, shapeOf(m.H.VectorRef(code, shapeSlot)), obj.Nil, len(m.stack))
}

// execute runs code, of shape s, in a new activation whose value stack
// starts at base (a stack frame's slots already lie there) and whose
// innermost heap frame is env.
func (m *Machine) execute(code obj.Value, s codeShape, env obj.Value, base int) (result obj.Value, err error) {
	h := m.H
	m.depth++
	defer func() { m.depth-- }()
	if m.depth > maxEvalDepth {
		return obj.Void, fmt.Errorf("scheme: evaluation depth exceeded (non-tail recursion too deep)")
	}
	frameFloor := len(m.vmFrames)
	done := false
	defer func() {
		if !done { // error return or unwinding panic (continuation escape)
			m.vmFrames = m.vmFrames[:frameFloor]
			if len(m.stack) > base {
				m.stack = m.stack[:base]
			}
		}
	}()
	m.vmFrames = append(m.vmFrames, vmFrame{code: code, shape: s, env: env, base: base})

	fail := func(format string, args ...any) (obj.Value, error) {
		return obj.Void, fmt.Errorf("vm: "+format, args...)
	}

	// The top frame's views of its code, read in place
	// (heap.VectorWords): cw is the code vector [instrs, shape,
	// consts...] from word 0, ins the instruction words from word lo on,
	// each up to the end of its segment. Re-deriving them is two
	// segment-table walks. They are kept until the frame's code changes
	// (a compiled call, tail call or return drops them) or the heap may
	// have moved or privatized something since they were taken: a
	// collection at a safe point, or anything a call out of compiled
	// code does. heap.Epoch tells; it is checked after each of those.
	var cw, ins []uint64
	var lo int
	var epoch uint64
	for {
		f := &m.vmFrames[len(m.vmFrames)-1]
		if cw == nil {
			cw, ins, epoch = h.VectorWords(f.code, 0), nil, h.Epoch()
		}
		i := f.pc - lo
		if uint(i) >= uint(len(ins)) {
			ins, lo, i = h.VectorWords(obj.Value(cw[instrsSlot]), f.pc), f.pc, 0
			if len(ins) == 0 {
				return fail("fell off end of %s", m.codeName(f.code))
			}
		}
		in := decode(obj.Value(ins[i]))
		f.pc++
		switch in.Op {
		case OpConst:
			m.stack = append(m.stack, m.constant(f.code, cw, in.A))
		case OpVoid:
			m.stack = append(m.stack, obj.Void)
		case OpLocal:
			fr := f.env
			for d := 0; d < in.A; d++ {
				fr = h.VectorRef(fr, 0)
			}
			v := h.VectorRef(fr, 1+in.B)
			if v == obj.Unbound {
				return fail("variable used before initialization in %s", m.codeName(f.code))
			}
			m.stack = append(m.stack, v)
		case OpSetLocal:
			v := m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
			fr := f.env
			for d := 0; d < in.A; d++ {
				fr = h.VectorRef(fr, 0)
			}
			h.VectorSet(fr, 1+in.B, v)
			m.stack = append(m.stack, obj.Void)
		case OpArg:
			v := m.stack[f.base+in.A]
			if v == obj.Unbound {
				return fail("variable used before initialization in %s", m.codeName(f.code))
			}
			m.stack = append(m.stack, v)
		case OpSetArg:
			top := len(m.stack) - 1
			m.stack[f.base+in.A] = m.stack[top]
			m.stack[top] = obj.Void
		case OpGlobal:
			sym := m.constant(f.code, cw, in.A)
			v := h.SymbolValue(sym)
			if v == obj.Unbound {
				return fail("unbound variable %s", h.SymbolString(sym))
			}
			m.stack = append(m.stack, v)
		case OpSetGlobal:
			sym := m.constant(f.code, cw, in.A)
			v := m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
			if h.SymbolValue(sym) == obj.Unbound {
				return fail("set! of unbound variable %s", h.SymbolString(sym))
			}
			h.SetSymbolValue(sym, v)
			m.stack = append(m.stack, obj.Void)
		case OpDefGlobal:
			sym := m.constant(f.code, cw, in.A)
			v := m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
			if m.isCompiledClosure(v) && h.RecordRef(v, 2) == obj.False {
				h.RecordSet(v, 2, sym)
			}
			h.SetSymbolValue(sym, v)
			m.stack = append(m.stack, obj.Void)
		case OpClosure:
			m.stack = append(m.stack, m.makeCompiledClosure(m.constant(f.code, cw, in.A), f.env))
		case OpJump:
			if in.A < f.pc {
				m.safepoint() // backward jump: loop safe point
				if err := m.burn(); err != nil {
					return obj.Void, err
				}
				if h.Epoch() != epoch {
					cw = nil
				}
				// A collect-request handler may have grown vmFrames.
				f = &m.vmFrames[len(m.vmFrames)-1]
			}
			f.pc = in.A
		case OpJumpIfFalse:
			v := m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
			if v == obj.False {
				f.pc = in.A
			}
		case OpPop:
			m.stack = m.stack[:len(m.stack)-1]
		case OpReturn:
			res := m.stack[len(m.stack)-1]
			m.stack = m.stack[:f.base]
			m.vmFrames = m.vmFrames[:len(m.vmFrames)-1]
			if len(m.vmFrames) == frameFloor {
				done = true
				return res, nil
			}
			m.stack = append(m.stack, res)
			cw = nil
		case OpCall, OpTailCall:
			// A collection at this safe point is caught below: a
			// compiled call drops the views anyway, a self tail call
			// and any other call check the epoch. A collect-request
			// handler run here may have grown vmFrames: re-take the
			// frame.
			m.safepoint()
			if err := m.burn(); err != nil {
				return obj.Void, err
			}
			f = &m.vmFrames[len(m.vmFrames)-1]
			n := in.A
			fnIdx := len(m.stack) - n - 1
			fn := m.stack[fnIdx]
			var res obj.Value
			var cerr error
			// One lookup for a heap operator's kind and fields; a
			// primitive is an immediate and needs none. A non-object
			// reads as kind 0, a vector, which nothing applies.
			var kind obj.Kind
			var p []uint64
			if !fn.IsPrim() {
				kind, p, _ = h.ObjectWords(fn)
			}
			switch {
			case fn.IsPrim():
				// The integrated built-ins run in place; the rest, and
				// operands they do not take, go through the table.
				idx, ok := fn.PrimIndex(), false
				if res, ok = m.integrated(idx, fnIdx+1, n); !ok {
					res, cerr = m.callPrimIndex(idx, Args{m: m, base: fnIdx + 1, n: n})
				}
			case kind == obj.KRecord && obj.Value(p[0]) == m.keywords[kwCompiledClosure]:
				code, env := obj.Value(p[1]), obj.Value(p[2])
				if in.Op == OpTailCall && code == f.code {
					// A self tail call, the back-edge of a named let or
					// a do loop: the running clause's shape and code
					// views stand. A case-lambda entry never equals the
					// clause it selected, so it takes the general path.
					if !f.shape.accepts(n) {
						return fail("no matching clause for %d arguments in %s",
							n, m.closureName(fn))
					}
					f.pc, f.env = 0, m.enterFrame(f.shape, env, f.base, fnIdx, n)
					if h.Epoch() != epoch {
						cw = nil
					}
					continue
				}
				clause, s, ok := m.selectClause(code, n)
				if !ok {
					return fail("no matching clause for %d arguments in %s",
						n, m.closureName(fn))
				}
				if in.Op == OpTailCall {
					f.code, f.shape, f.pc = clause, s, 0
					f.env = m.enterFrame(s, env, f.base, fnIdx, n)
				} else {
					if len(m.vmFrames) >= maxVMFrames {
						return obj.Void, fmt.Errorf("scheme: evaluation depth exceeded (non-tail recursion too deep)")
					}
					env = m.enterFrame(s, env, fnIdx, fnIdx, n)
					m.vmFrames = append(m.vmFrames, vmFrame{code: clause, shape: s, env: env, base: fnIdx})
				}
				cw = nil
				continue
			case kind == obj.KRecord && obj.Value(p[0]) == m.keywords[kwContinuation]:
				val := obj.Value(obj.Void)
				if n >= 1 {
					val = m.stack[fnIdx+1]
				}
				res, cerr = m.invokeContinuation(fn, val) // panics if live
			default:
				cerr = fmt.Errorf("vm: attempt to apply non-procedure: %s", m.WriteString(fn))
			}
			if cerr != nil {
				return obj.Void, cerr
			}
			if h.Epoch() != epoch {
				cw = nil
			}
			// The callee may have grown vmFrames: re-take the frame.
			f = &m.vmFrames[len(m.vmFrames)-1]
			if in.Op == OpTailCall {
				m.stack = m.stack[:f.base]
				m.vmFrames = m.vmFrames[:len(m.vmFrames)-1]
				if len(m.vmFrames) == frameFloor {
					done = true
					return res, nil
				}
				m.stack = append(m.stack, res)
				cw = nil
			} else {
				m.stack = m.stack[:fnIdx]
				m.stack = append(m.stack, res)
			}
		default:
			return fail("bad opcode %v", in.Op)
		}
	}
}

// constant returns constant a of code, whose window from word 0 is cw:
// from cw unless it lies past the end of the code vector's segment.
func (m *Machine) constant(code obj.Value, cw []uint64, a int) obj.Value {
	if j := constsSlot + a; j < len(cw) {
		return obj.Value(cw[j])
	}
	return m.H.VectorRef(code, constsSlot+a)
}

// codeName names a code object's kind for error messages.
func (m *Machine) codeName(code obj.Value) string {
	return codeKindNames[shapeOf(m.H.VectorRef(code, shapeSlot)).kind]
}

func (m *Machine) closureName(fn obj.Value) string {
	if name := m.H.RecordRef(fn, 2); m.isSymbol(name) {
		return m.H.SymbolString(name)
	}
	return "anonymous procedure"
}

// applyCompiled invokes a compiled closure on the n arguments at the
// top of the machine stack, from argsBase (Apply's calls from Go). The
// frame's stack starts at argsBase.
// The arguments move up one word, so that the stack reads as at a call
// from the VM: the callee's word, then the arguments.
func (m *Machine) applyCompiled(fn obj.Value, argsBase, n int) (obj.Value, error) {
	h := m.H
	clause, s, ok := m.selectClause(h.RecordRef(fn, 0), n)
	if !ok {
		return obj.Void, fmt.Errorf("scheme: no matching clause for %d arguments in %s",
			n, m.closureName(fn))
	}
	m.stack = append(m.stack[:argsBase+n], obj.Void)
	copy(m.stack[argsBase+1:], m.stack[argsBase:argsBase+n])
	m.stack[argsBase] = fn
	env := m.enterFrame(s, h.RecordRef(fn, 1), argsBase, argsBase, n)
	return m.execute(clause, s, env, argsBase)
}
