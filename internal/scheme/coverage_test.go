package scheme_test

import (
	"strings"
	"testing"

	"repro/internal/obj"
)

// Tests targeting less-traveled paths: flonum arithmetic variants,
// equal? over every kind, and printer output for every object kind.

func TestFlonumArithmetic(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(- 5.5 0.5)", "5.0")
	expectEval(t, m, "(- 2.5)", "-2.5")
	expectEval(t, m, "(- 10 2.5 0.5)", "7.0")
	expectEval(t, m, "(+ 0.25 0.25)", "0.5")
	expectEval(t, m, "(* 1.5 2)", "3.0")
	expectEval(t, m, "(/ 1.0 4)", "0.25")
	expectEval(t, m, "(/ 2.0)", "0.5")
	expectEval(t, m, "(< 1.5 2)", "#t")
	expectEval(t, m, "(= 2.0 2)", "#t")
	expectEval(t, m, "(max 1 2.5)", "2.5")
	expectEval(t, m, "(min 1 2.5)", "1")
	expectEval(t, m, "(abs -1.5)", "1.5")
	expectEval(t, m, "(zero? 0.0)", "#t")
	expectEval(t, m, "(eqv? 1.5 1.5)", "#t")
	expectEval(t, m, "(eqv? 1.5 2.5)", "#f")
	expectEval(t, m, "(eqv? 1.5 'x)", "#f")
	for _, src := range []string{"(- 'a 1)", "(- 1 'a)", "(- 1.0 'a)", "(/ 1 0)", "(/ 1.0 0)", "(/ 0)"} {
		if _, err := m.EvalString(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestEqualAcrossKinds(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, `(equal? "ab" "ab")`, "#t")
	expectEval(t, m, `(equal? "ab" "ac")`, "#f")
	expectEval(t, m, "(equal? #(1 #(2)) #(1 #(2)))", "#t")
	expectEval(t, m, "(equal? #(1 2) #(1 2 3))", "#f")
	expectEval(t, m, "(equal? #(1 2) '(1 2))", "#f")
	expectEval(t, m, "(equal? 1.5 1.5)", "#t")
	expectEval(t, m, "(equal? '(1 . 2) '(1 . 2))", "#t")
	expectEval(t, m, "(equal? 'a \"a\")", "#f")
	// Cyclic structures terminate (budget-bounded).
	expectEval(t, m, `
		(let ([a (list 1)] [b (list 1)])
		  (set-cdr! a a) (set-cdr! b b)
		  (boolean? (equal? a b)))`, "#t")
}

func TestPrinterAllKinds(t *testing.T) {
	m := newMachine(t)
	h := m.H
	cases := []struct {
		v    obj.Value
		want string
	}{
		{h.MakeBytevector(5), "#<bytevector 5>"},
		{h.MakeBox(obj.FromFixnum(3)), "#&3"},
		{h.MakeFlonum(1e21), "1e+21"},
		{h.MakeFlonum(2.0), "2.0"},
		{h.MakeRecord(h.MakeString("point"), 1), "#<record point>"},
		{h.MakeRecord(m.Intern("tagged"), 1), "#<record tagged>"},
	}
	for _, c := range cases {
		if got := m.WriteString(c.v); got != c.want {
			t.Errorf("WriteString = %q, want %q", got, c.want)
		}
	}
	// Procedure printing.
	expectEval(t, m, "(begin (define (named-proc) 1) 'ok)", "ok")
	if got := evalStr(t, m, "named-proc"); got != "#<procedure named-proc>" {
		t.Errorf("named closure prints %q", got)
	}
	if got := evalStr(t, m, "car"); got != "#<procedure car>" {
		t.Errorf("primitive prints %q", got)
	}
	if got := evalStr(t, m, "(lambda (x) x)"); got != "#<procedure>" {
		t.Errorf("anonymous closure prints %q", got)
	}
	if got := evalStr(t, m, "(call/cc (lambda (k) k))"); got != "#<continuation>" {
		t.Errorf("continuation prints %q", got)
	}
	// Compiled closure printing.
	v, err := m.EvalString("(define (compiled-named) 1) compiled-named")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.WriteString(v); got != "#<procedure compiled-named>" {
		t.Errorf("compiled closure prints %q", got)
	}
	// Ports print direction and fd.
	got := evalStr(t, m, `(open-output-string)`)
	if !strings.HasPrefix(got, "#<output-port fd=") {
		t.Errorf("port prints %q", got)
	}
	// Display of deep structure hits the depth cutoff, not a hang.
	deep := "1"
	for i := 0; i < 100; i++ {
		deep = "(list " + deep + ")"
	}
	out := evalStr(t, m, deep)
	if !strings.Contains(out, "...") {
		t.Error("deep structure should be elided")
	}
}

func TestEvalStringMultipleFormsAndErrors(t *testing.T) {
	m := newMachine(t)
	// Multiple top-level forms: last value wins; earlier effects stick.
	expectEval(t, m, "(define a 1) (define b 2) (+ a b)", "3")
	// Error in a middle form aborts the rest.
	if _, err := m.EvalString("(define c 1) (car 5) (define d 2)"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := m.EvalString("d"); err == nil {
		t.Fatal("d should not have been defined after the error")
	}
	expectEval(t, m, "c", "1")
	// Empty input yields void.
	expectEval(t, m, "", "#<void>")
	expectEval(t, m, "   ; just a comment", "#<void>")
}

func TestCompileErrorMessages(t *testing.T) {
	m := newMachine(t)
	for _, src := range []string{
		"(lambda (1) x)",     // non-symbol formal
		"(lambda (x . 2) x)", // non-symbol rest
		"(quote)",
		"(if)",
		"(set! 5 1)",
		"(define 5 1)",
		"(case-lambda 5)",
		"(let ([x 1]) (define y 2) (car 0) y)", // runtime error after internal define
	} {
		if _, err := m.EvalString(src); err == nil {
			t.Errorf("compiled %q: expected error", src)
		}
	}
	// Internal define NOT at body head is rejected by the compiler.
	if _, err := m.EvalString("((lambda () 1 (define x 2) x))"); err == nil {
		t.Error("late internal define should be a compile error")
	}
}
