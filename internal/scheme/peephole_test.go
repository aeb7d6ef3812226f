package scheme_test

import (
	"strings"
	"testing"
)

func TestJumpThreading(t *testing.T) {
	m := newMachine(t)
	// Nested ifs produce jump-to-jump chains; after threading, no jump
	// may target another unconditional jump.
	srcs := []string{
		"(if a (if b 1 2) (if c 3 4))",
		"(cond [a 1] [b 2] [c 3] [else 4])",
		"(case x [(1) 'a] [(2) 'b] [(3) 'c] [else 'd])",
		"(and a b c d)",
		"(or a b c d)",
	}
	for _, src := range srcs {
		forms, err := m.ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		code, err := m.CompileTop(forms[0])
		if err != nil {
			t.Fatal(err)
		}
		instrs := m.CodeInstrs(code)
		for pc, in := range instrs {
			if in.Op.String() == "jump" || in.Op.String() == "jump-if-false" {
				if in.A < len(instrs) && instrs[in.A].Op.String() == "jump" {
					t.Errorf("%s: pc %d jumps to a jump at %d:\n%s",
						src, pc, in.A, m.Disassemble(code))
				}
			}
		}
	}
	// Behavior is unchanged.
	m.MustEval("(define a #f) (define b #t) (define c #t) (define d 9) (define x 2)")
	for _, c := range []struct{ src, want string }{
		{"(if a (if b 1 2) (if c 3 4))", "3"},
		{"(cond [a 1] [b 2] [c 3] [else 4])", "2"},
		{"(case x [(1) 'a] [(2) 'b] [else 'd])", "b"},
		{"(and b c d)", "9"},
		{"(or a #f d)", "9"},
	} {
		v, err := m.EvalString(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.WriteString(v); got != c.want {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
	_ = strings.Contains
}
