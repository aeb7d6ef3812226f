package scheme_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/scheme"
)

func errorsAs(err error, target **scheme.ExitError) bool { return errors.As(err, target) }

// Tests for the extended library surface (prelude + primitives).

func TestListLibrary(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(memv 2 '(1 2 3))", "(2 3)")
	expectEval(t, m, "(memv 9 '(1 2 3))", "#f")
	expectEval(t, m, "(assv 2 '((1 a) (2 b)))", "(2 b)")
	expectEval(t, m, "(last-pair '(1 2 3))", "(3)")
	expectEval(t, m, "(list-copy '(1 2 3))", "(1 2 3)")
	expectEval(t, m, `
		(let ([orig (list 1 2)])
		  (let ([copy (list-copy orig)])
		    (set-car! copy 99)
		    (list (car orig) (car copy))))`, "(1 99)")
	expectEval(t, m, "(fold-left + 0 '(1 2 3 4))", "10")
	expectEval(t, m, "(fold-left (lambda (acc x) (cons x acc)) '() '(1 2 3))", "(3 2 1)")
	expectEval(t, m, "(fold-right cons '() '(1 2 3))", "(1 2 3)")
	expectEval(t, m, "(list-index even? '(1 3 4 5))", "2")
	expectEval(t, m, "(list-index even? '(1 3 5))", "#f")
	expectEval(t, m, "(list-tail '(1 2 3 4) 2)", "(3 4)")
}

func TestSort(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(sort < '())", "()")
	expectEval(t, m, "(sort < '(1))", "(1)")
	expectEval(t, m, "(sort < '(3 1 2))", "(1 2 3)")
	expectEval(t, m, "(sort > '(3 1 2))", "(3 2 1)")
	expectEval(t, m, "(sort < '(5 4 3 2 1 1 2 3 4 5))", "(1 1 2 2 3 3 4 4 5 5)")
	// Stability: pairs sorted by car keep original cdr order.
	expectEval(t, m, `
		(map cdr (sort (lambda (a b) (< (car a) (car b)))
		               '((2 . x) (1 . a) (2 . y) (1 . b))))`, "(a b x y)")
	// Sorting a large list exercises the collector mid-sort.
	expectEval(t, m, `
		(let ([ls (sort < (reverse (iota 500)))])
		  (list (car ls) (list-ref ls 499) (length ls)))`, "(0 499 500)")
}

func TestVectorLibrary(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(vector-map (lambda (x) (* x x)) #(1 2 3))", "#(1 4 9)")
	expectEval(t, m, `
		(let ([sum 0])
		  (vector-for-each (lambda (x) (set! sum (+ sum x))) #(1 2 3))
		  sum)`, "6")
}

func TestCharAndStringLibrary(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, `(char-upcase #\a)`, `#\A`)
	expectEval(t, m, `(char-upcase #\Z)`, `#\Z`)
	expectEval(t, m, `(char-downcase #\Q)`, `#\q`)
	expectEval(t, m, `(char<? #\a #\b)`, "#t")
	expectEval(t, m, `(char->string #\x)`, `"x"`)
	expectEval(t, m, `(string #\a #\b #\c)`, `"abc"`)
	expectEval(t, m, `(string->list "ab")`, `(#\a #\b)`)
	expectEval(t, m, `(list->string '(#\a #\b))`, `"ab"`)
	expectEval(t, m, `(string<? "abc" "abd")`, "#t")
	expectEval(t, m, `(string-copy "hi")`, `"hi"`)
	expectEval(t, m, `(eq? "s" (string-copy "s"))`, "#f")
	expectEval(t, m, "(boolean=? #t #t)", "#t")
}

func TestNumericLibrary(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(exact? 1)", "#t")
	expectEval(t, m, "(exact? 1.5)", "#f")
	expectEval(t, m, "(inexact? 1.5)", "#t")
	expectEval(t, m, "(exact->inexact 2)", "2.0")
	expectEval(t, m, "(inexact->exact 2.7)", "2")
	expectEval(t, m, "(expt 2 10)", "1024")
	expectEval(t, m, "(expt 3 0)", "1")
	if _, err := m.EvalString("(expt 2 -1)"); err == nil {
		t.Fatal("negative exponent should error")
	}
}

func TestReadLine(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, `
		(begin
		  (make-file "lines" "first\nsecond\nlast")
		  (define p (open-input-file "lines"))
		  (let ([a (read-line p)] [b (read-line p)] [c (read-line p)] [d (read-line p)])
		    (list a b c (eof-object? d))))`,
		`("first" "second" "last" #t)`)
}

func TestLibraryUnderCollectionPressure(t *testing.T) {
	m := newMachine(t)
	// A composite workload mixing most library functions with explicit
	// collections of every generation.
	expectEval(t, m, `
		(begin
		  (define data (map (lambda (i) (cons i (number->string i))) (iota 100)))
		  (collect 0)
		  (define sorted (sort (lambda (a b) (> (car a) (car b))) data))
		  (collect 1)
		  (define strs (map cdr sorted))
		  (collect 2)
		  (define back (map (lambda (s) (string->number s)) strs))
		  (collect 3)
		  (list (car back) (fold-left + 0 back)))`,
		"(99 4950)")
}

func TestExitAndGuardedExit(t *testing.T) {
	m := newMachine(t)
	_, err := m.EvalString("(exit 3)")
	var ee *scheme.ExitError
	if !errorsAs(err, &ee) || ee.Code != 3 {
		t.Fatalf("exit did not produce ExitError(3): %v", err)
	}
	// guarded-exit (§3): closes dropped ports before exiting.
	m.MustEval(`
		(define p (guarded-open-output-file "exitlog"))
		(display "flushed on exit" p)
		(set! p #f)
		(collect 1)`)
	_, err = m.EvalString("(guarded-exit)")
	if !errorsAs(err, &ee) || ee.Code != 0 {
		t.Fatalf("guarded-exit did not exit: %v", err)
	}
	expectEval(t, m, `(file-contents "exitlog")`, `"flushed on exit"`)
	// Exit propagates through dynamic-wind, running after thunks.
	m.MustEval("(define unwound #f)")
	_, err = m.EvalString(`
		(dynamic-wind
		  (lambda () #f)
		  (lambda () (exit 7))
		  (lambda () (set! unwound #t)))`)
	if !errorsAs(err, &ee) || ee.Code != 7 {
		t.Fatalf("exit through dynamic-wind: %v", err)
	}
	expectEval(t, m, "unwound", "#t")
}

func TestDisassemblePrim(t *testing.T) {
	m := newMachine(t)
	v, err := m.EvalString(`
		(define (twice x) (+ x x))
		(disassemble twice)`)
	if err != nil {
		t.Fatal(err)
	}
	out := m.H.StringValue(v)
	for _, want := range []string{"stack frame", "arg", "global", "tail-call", "return"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	// A frame a nested lambda captures is a heap vector, read by depth.
	v, err = m.EvalString(`
		(define (adder x) (lambda (y) (+ x y)))
		(disassemble adder)`)
	if err != nil {
		t.Fatal(err)
	}
	out = m.H.StringValue(v)
	for _, want := range []string{"heap frame", "closure", "local", "arg"} {
		if !strings.Contains(out, want) {
			t.Errorf("captured-frame disassembly missing %q:\n%s", want, out)
		}
	}
	// A primitive is not compiled code.
	if _, err := m.EvalString("(disassemble car)"); err == nil {
		t.Error("disassemble of a primitive should error")
	}
}
