package scheme_test

import (
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/scheme"
)

// FuzzReader feeds arbitrary bytes to the reader: it must never panic,
// and any datum it does produce must print, re-read, and compare equal
// (print/read round-trip).
func FuzzReader(f *testing.F) {
	for _, seed := range []string{
		"", "42", "(a b c)", "'(1 . 2)", "#(1 2)", `"str\n"`, "#\\a",
		"`(a ,b ,@c)", "(((", ")))", "#t#f", "; comment", "#| block |#",
		"3.14", "-7", "(define (f x) (+ x 1))", "#\\space", "[a b]",
		"(1 . 2 . 3)", "\"unterminated", "#z", "a.b.c", "...", "'",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		h := heap.MustNew(heap.Config{Generations: 2, Policy: heap.RadixPolicy{Trigger: 1 << 24, Radix: 4}, UseDirtySet: true})
		m := scheme.New(h, nil)
		vals, err := m.ReadAll(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, v := range vals {
			printed := m.WriteString(v)
			back, err := m.ReadAll(printed)
			if err != nil || len(back) != 1 {
				// Values containing immediates like #<void> do not
				// round-trip; only structural data must.
				continue
			}
			if m.WriteString(back[0]) != printed {
				t.Errorf("round-trip mismatch: %q -> %q", printed, m.WriteString(back[0]))
			}
		}
	})
}

// FuzzDifferential runs arbitrary programs on the reference evaluator
// and on the VM: results must agree (or both must error), and both
// heaps must stay sound. Each machine runs its own prelude, so the
// seeds that pass user closures to prelude procedures compare the
// compiled prelude with the reference-evaluated one.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []string{
		"(+ 1 2)", "(let ([x 1]) x)", "(sort < '(2 1))",
		"(define (f) 1) (f)", "(cond [else 'e])", "(case 1 [(1) 'one])",
		"(do ([i 0 (+ i 1)]) ((= i 3) i))", "`(a ,(+ 1 1))",
		"((case-lambda [(a) a] [(a b) b]) 1 2)",
		"(and 1 (or #f 2))", "(letrec ([f (lambda () 1)]) (f))",
		// Rebound built-ins and fixnum-boundary operands: the VM's
		// integrated primitives against the reference's table calls.
		"(define (+ a b) (* a b)) (+ 3 4)", "(set! car cdr) (car '(1 2))",
		"(define (f p) (car p)) (f '(1)) (set! car cdr) (f '(1 2))",
		"(= 9007199254740993 9007199254740992)", "(< 9007199254740992 9007199254740993)",
		"(max 9007199254740992 9007199254740993)", "(+ 1152921504606846975 1)",
		"(- -1152921504606846976 1)", "(< 1 1.5)", "(car 1)", "(+ 1 #\\a)",
		"(let loop ([i 0]) (if (< i 5) (loop (+ i 1)) (cons i (cdr '(x)))))",
		// Prelude procedures calling user closures.
		"(map (lambda (x) (* x x)) '(1 2 3))",
		"(let ([acc '()]) (for-each (lambda (x y) (set! acc (cons (+ x y) acc))) '(1 2) '(10 20)) acc)",
		"(apply (lambda (a . r) (list a r)) 1 '(2 3))",
		"(call/cc (lambda (k) (for-each (lambda (x) (if (> x 2) (k x))) '(1 2 3 4)) 'none))",
		"(let ([t '()]) (dynamic-wind (lambda () (set! t (cons 'in t))) (lambda () (map (lambda (x) (set! t (cons x t)) x) '(1 2))) (lambda () (set! t (cons 'out t)))) (reverse t))",
		"(define G (make-guardian)) (for-each (lambda (i) (G (cons i i))) (iota 5)) (collect 3) (let drain ([x (G)] [n 0]) (if x (drain (G) (+ n (car x))) n))",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return
		}
		hi := heap.MustNew(heap.Config{Generations: 3, Policy: heap.RadixPolicy{Trigger: 4096, Radix: 4}, UseDirtySet: true})
		mi := scheme.NewReference(hi, nil)
		mi.SetFuel(200000)
		iv, ierr := mi.RefEvalString(src)

		hc := heap.MustNew(heap.Config{Generations: 3, Policy: heap.RadixPolicy{Trigger: 4096, Radix: 4}, UseDirtySet: true})
		mc := scheme.New(hc, nil)
		mc.SetFuel(200000)
		cv, cerr := mc.EvalString(src)

		if ierr == nil && cerr == nil {
			is, cs := mi.WriteString(iv), mc.WriteString(cv)
			if is != cs && !strings.Contains(is, "#<") && !strings.Contains(cs, "#<") {
				t.Errorf("divergence on %q:\n  reference: %s\n  vm:        %s", src, is, cs)
			}
		}
		if errs := hi.Verify(); len(errs) > 0 {
			t.Fatalf("reference heap unsound after %q: %v", src, errs[0])
		}
		if errs := hc.Verify(); len(errs) > 0 {
			t.Fatalf("vm heap unsound after %q: %v", src, errs[0])
		}
	})
}

// FuzzEval evaluates arbitrary programs with a small nursery: the
// machine must return a value or an error, never panic, and the heap
// must stay sound.
func FuzzEval(f *testing.F) {
	for _, seed := range []string{
		"(+ 1 2)", "(car '(1))", "(define x 1) x", "((lambda (x) x) 5)",
		"(let loop ([i 0]) (if (< i 10) (loop (+ i 1)) i))",
		"(make-guardian)", "((make-guardian))",
		"(weak-cons 1 2)", "(collect 0)",
		"(call/cc (lambda (k) (k 1)))",
		"(vector-ref (make-vector 3 0) 5)",
		"(car 5)", "(1 2)", "(quote)", "(if)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1024 {
			return
		}
		h := heap.MustNew(heap.Config{Generations: 3, Policy: heap.RadixPolicy{Trigger: 4096, Radix: 4}, UseDirtySet: true})
		m := scheme.New(h, nil)
		m.SetFuel(500000)
		_, _ = m.EvalString(src) // errors fine; panics reach the fuzzer
		if errs := h.Verify(); len(errs) > 0 {
			t.Fatalf("heap unsound after %q: %v", src, errs[0])
		}
	})
}
