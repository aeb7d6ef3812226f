package scheme

import (
	"fmt"
	"strings"

	"repro/internal/obj"
)

// CodeInstrs decodes a code object's instructions (none for a
// case-lambda entry, whose constants are its clauses).
func (m *Machine) CodeInstrs(code obj.Value) []Instr {
	iv := m.H.VectorRef(code, instrsSlot)
	if iv == obj.False {
		return nil
	}
	out := make([]Instr, m.H.VectorLength(iv))
	for i := range out {
		out[i] = decode(m.H.VectorRef(iv, i))
	}
	return out
}

// Disassemble renders a code object as readable assembly, one
// instruction per line, with constants printed via the machine's
// writer. Nested clause codes of a case-lambda are listed after the
// entry.
func (m *Machine) Disassemble(code obj.Value) string {
	var b strings.Builder
	seen := map[obj.Value]bool{}
	m.disasmRec(&b, code, "", seen)
	return b.String()
}

func (m *Machine) disasmRec(b *strings.Builder, code obj.Value, indent string, seen map[obj.Value]bool) {
	if seen[code] {
		return
	}
	seen[code] = true
	h := m.H
	m.disasmOne(b, code, indent)
	if shapeOf(h.VectorRef(code, shapeSlot)).kind == kindCaseLambda {
		for i := constsSlot; i < h.VectorLength(code); i++ {
			fmt.Fprintf(b, "%sclause %d:\n", indent, i-constsSlot)
			m.disasmRec(b, h.VectorRef(code, i), indent+"  ", seen)
		}
	}
	// Nested lambdas referenced by closure instructions.
	for _, in := range m.CodeInstrs(code) {
		if in.Op == OpClosure {
			m.disasmRec(b, h.VectorRef(code, constsSlot+in.A), indent+"  ", seen)
		}
	}
}

func (m *Machine) disasmOne(b *strings.Builder, code obj.Value, indent string) {
	h := m.H
	s := shapeOf(h.VectorRef(code, shapeSlot))
	fmt.Fprintf(b, "%s;; %s: %d required", indent, codeKindNames[s.kind], s.nreq)
	if s.rest {
		fmt.Fprintf(b, " + rest")
	}
	fmt.Fprintf(b, ", %d slots, %d consts", s.nslots, h.VectorLength(code)-constsSlot)
	switch {
	case s.kind != kindLambda && s.kind != kindClause:
	case s.stack:
		b.WriteString(", stack frame")
	default:
		b.WriteString(", heap frame")
	}
	b.WriteByte('\n')
	for pc, in := range m.CodeInstrs(code) {
		fmt.Fprintf(b, "%s%4d  %-14s", indent, pc, in.Op)
		switch in.Op {
		case OpConst, OpGlobal, OpSetGlobal, OpDefGlobal:
			fmt.Fprintf(b, "%d    ; %s", in.A, m.WriteString(h.VectorRef(code, constsSlot+in.A)))
		case OpLocal, OpSetLocal:
			fmt.Fprintf(b, "%d %d", in.A, in.B)
		case OpClosure:
			fmt.Fprintf(b, "%d    ; %s", in.A, m.codeName(h.VectorRef(code, constsSlot+in.A)))
		case OpArg, OpSetArg, OpJump, OpJumpIfFalse, OpCall, OpTailCall:
			fmt.Fprintf(b, "%d", in.A)
		}
		b.WriteByte('\n')
	}
}

// DisassembleString compiles every form in src and returns the
// disassembly of each, separated by blank lines — the REPL's
// inspection hook and a compiler-debugging aid.
func (m *Machine) DisassembleString(src string) (string, error) {
	forms, err := m.ReadAll(src)
	if err != nil {
		return "", err
	}
	base := len(m.stack)
	defer func() { m.stack = m.stack[:base] }()
	m.stack = append(m.stack, forms...)
	var b strings.Builder
	for i := range forms {
		code, err := m.CompileTop(m.stack[base+i])
		if err != nil {
			return "", err
		}
		b.WriteString(m.Disassemble(code))
		b.WriteByte('\n')
	}
	return b.String(), nil
}
