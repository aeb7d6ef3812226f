package scheme_test

import (
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/scheme"
)

// differentialPrograms is shared by the differential test: every
// program must produce identical results on the reference evaluator and
// on the VM.
var differentialPrograms = []string{
	"42", "#t", `"str"`, "'sym", "'(1 2 . 3)", "3.5",
	"(+ 1 2 3)", "(* 2 (- 10 4))", "(quotient 17 5)",
	"(if (< 1 2) 'yes 'no)", "(if #f 'yes)",
	"((lambda (x y) (cons x y)) 1 2)",
	"((lambda args args) 1 2 3)",
	"((lambda (a . r) (list a r)) 1 2 3)",
	"(begin 1 2 3)", "(begin)",
	"(let ([x 1] [y 2]) (+ x y))",
	"(let* ([x 1] [y (+ x 1)]) (list x y))",
	"(letrec ([f (lambda (n) (if (zero? n) 1 (* n (f (- n 1)))))]) (f 6))",
	"(let loop ([i 0] [acc '()]) (if (= i 4) (reverse acc) (loop (+ i 1) (cons i acc))))",
	"(cond [#f 1] [#t 2] [else 3])",
	"(cond [(assq 'b '((a 1) (b 2))) => cadr] [else 'no])",
	"(cond [5])", "(cond)",
	"(case (* 2 3) [(2 3 5 7) 'prime] [(1 4 6 8 9) 'composite])",
	"(case 'z [(a) 1] [else 'other])",
	"(and 1 2 3)", "(and 1 #f 3)", "(and)", "(or #f 2)", "(or)", "(or #f #f)",
	"(when (> 2 1) 'a 'b)", "(unless (> 2 1) 'x)",
	"(do ([i 0 (+ i 1)] [s 0 (+ s i)]) ((= i 5) s))",
	"(do ([i 0 (+ i 1)]) ((= i 3)))",
	"`(1 2 ,(+ 1 2))", "`(1 ,@(list 2 3) 4)", "`#(1 ,(+ 1 1))",
	"`(a `(b ,(c ,(+ 1 2))))",
	"(define x 10) (set! x (+ x 5)) x",
	"(define (f a b) (+ a b)) (f 3 4)",
	"(define (g) (define y 5) (define (h) (* y 2)) (h)) (g)",
	"(map (lambda (x) (* x x)) '(1 2 3))",
	"(apply + 1 '(2 3))",
	"(vector-ref (vector 'a 'b 'c) 1)",
	"(sort < '(3 1 2))",
	"(length (iota 100))",
	"(fold-left + 0 (iota 10))",
	"(call/cc (lambda (k) (+ 1 (k 41) 99)))",
	"(case-lambda-test)",
	"(string-append (symbol->string 'ab) \"cd\")",
	"(equal? `(1 (2 ,(+ 1 2))) '(1 (2 3)))",
	"(let ([x 'outer]) (define (probe) x) (let ([x 'inner]) (probe)))",
	"(eq? 'interned 'interned)",
	"((lambda (f) (f (f 3))) (lambda (x) (* x x)))",
	"((case-lambda [(a) 0] [(a a) a]) 0 1)", "((lambda (a a . a) a) 1 2 3)",
	"((lambda (x x) (define x (* x 10)) x) 1 2)",
	"(string->list \"ab\")",
	"(list->string '(#\\x #\\y))",
	"(char-upcase #\\q)",
	"(vector-map (lambda (x) (+ x 1)) #(1 2))",
	"(vector->list (list->vector '(1 2 3)))",
	"(assv 2 '((1 . a) (2 . b)))",
	"(memv 3 '(1 2 3))",
	"(list-copy '(1 2 3))",
	"(last-pair '(1 2 3))",
	"(fold-right cons '() '(1 2 3))",
	"(filter even? (iota 10))",
	"(number->string 255)",
	"(string->number \"3.5\")",
	"(substring \"abcdef\" 2 4)",
	"(let ([b (box 1)]) (set-box! b 2) (unbox b))",
	"(expt 3 4)",
	"(modulo -7 3)",
	"(remainder -7 3)",
	"(reverse (iota 5))",
	"(length (append (iota 3) (iota 4)))",
	"(boolean=? (even? 2) #t)",
	"(sort (lambda (a b) (string<? a b)) '(\"c\" \"a\" \"b\"))",
	"(do ([i 0 (+ i 1)] [acc '() (cons i acc)]) ((= i 4) acc))",
	"(let loop ([i 0]) (when (< i 3) (loop (+ i 1))) i)",
	"(case #\\a [(#\\a #\\b) 'letter] [else 'other])",
	"(weak-pair? (weak-cons 1 2))",
	"(pair? (weak-cons 1 2))",
}

func TestDifferentialInterpreterVsCompiler(t *testing.T) {
	for _, src := range differentialPrograms {
		src := src
		t.Run(src[:min(len(src), 30)], func(t *testing.T) {
			mi := scheme.NewReference(heap.NewDefault(), nil)
			mc := scheme.New(heap.NewDefault(), nil)
			prep := "(define (case-lambda-test) ((case-lambda [() 0] [(a) (list 1 a)] [(a . r) (list 2 a r)]) 7 8))"
			if _, err := mi.RefEvalString(prep); err != nil {
				t.Fatal(err)
			}
			if _, err := mc.EvalString(prep); err != nil {
				t.Fatal(err)
			}
			iv, ierr := mi.RefEvalString(src)
			cv, cerr := mc.EvalString(src)
			if (ierr == nil) != (cerr == nil) {
				t.Fatalf("error divergence: reference=%v vm=%v", ierr, cerr)
			}
			if ierr != nil {
				return
			}
			is, cs := mi.WriteString(iv), mc.WriteString(cv)
			if is != cs {
				t.Fatalf("result divergence:\n  reference: %s\n  vm:        %s", is, cs)
			}
		})
	}
}

// TestReferenceAndVMSalvageAlike runs the same workloads on the
// reference evaluator and on the VM over identically configured heaps:
// the mechanism is independent of the execution engine, so both
// compute the same result and salvage the same guardian entries.
func TestReferenceAndVMSalvageAlike(t *testing.T) {
	for _, w := range []struct{ name, src, want string }{
		{"fib 17", `
			(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
			(fib 17)`, "1597"},
		{"list churn", `
			(define (build n) (if (zero? n) '() (cons n (build (- n 1)))))
			(let loop ([i 0] [acc 0])
			  (if (= i 200) acc (loop (+ i 1) (+ acc (length (build 50))))))`, "10000"},
		{"guardian churn", `
			(define G (make-guardian))
			(define (spin n)
			  (if (zero? n) 'ok (begin (G (cons n n)) (spin (- n 1)))))
			(spin 3000)
			(collect 3)
			(let drain ([x (G)] [n 0])
			  (if x (drain (G) (+ n 1)) n))`, "3000"},
	} {
		var salvaged [2]uint64
		for i, ref := range []bool{true, false} {
			cfg := heap.DefaultConfig()
			cfg.Policy = heap.RadixPolicy{Trigger: 16 * 1024}
			h := heap.MustNew(cfg)
			m, run := scheme.New(h, nil), (*scheme.Machine).EvalString
			if ref {
				m, run = scheme.NewReference(h, nil), (*scheme.Machine).RefEvalString
			}
			v, err := run(m, w.src)
			if err != nil {
				t.Fatalf("%s (reference %v): %v", w.name, ref, err)
			}
			if got := m.WriteString(v); got != w.want {
				t.Fatalf("%s (reference %v) = %s, want %s", w.name, ref, got, w.want)
			}
			if errs := h.Verify(); len(errs) > 0 {
				t.Fatalf("%s (reference %v): %v", w.name, ref, errs[0])
			}
			salvaged[i] = h.Stats.GuardianEntriesSalvaged
		}
		if salvaged[0] != salvaged[1] {
			t.Errorf("%s: reference salvaged %d, VM %d", w.name, salvaged[0], salvaged[1])
		}
	}
}

func TestCompiledTailCallsDontGrowStack(t *testing.T) {
	m := newMachine(t)
	got := evalStr(t, m, `
		(define (count n) (if (zero? n) 'done (count (- n 1))))
		(count 1000000)`)
	if got != "done" {
		t.Fatalf("got %s", got)
	}
	got = evalStr(t, m, `
		(letrec ([even? (lambda (n) (if (zero? n) #t (odd? (- n 1))))]
		         [odd?  (lambda (n) (if (zero? n) #f (even? (- n 1))))])
		  (even? 100001))`)
	if got != "#f" {
		t.Fatalf("mutual tail recursion got %s", got)
	}
}

func TestCompiledGuardiansWork(t *testing.T) {
	m := newMachine(t)
	got := evalStr(t, m, `
		(define G (make-guardian))
		(define x (cons 'a 'b))
		(G x)
		(set! x #f)
		(collect 1)
		(G)`)
	if got != "(a . b)" {
		t.Fatalf("guardian via compiled code got %s", got)
	}
	got = evalStr(t, m, "(G)")
	if got != "#f" {
		t.Fatalf("second retrieval got %s", got)
	}
}

func TestCompiledCodeUnderAutomaticCollections(t *testing.T) {
	h := heap.MustNew(heap.Config{Generations: 4, Policy: heap.RadixPolicy{Trigger: 2048, Radix: 4}, UseDirtySet: true})
	m := scheme.New(h, nil)
	v, err := m.EvalString(`
		(define (build n) (if (zero? n) '() (cons n (build (- n 1)))))
		(define (sum ls) (if (null? ls) 0 (+ (car ls) (sum (cdr ls)))))
		(let loop ([i 0] [total 0])
		  (if (= i 100)
		      total
		      (loop (+ i 1) (+ total (sum (build 40))))))`)
	if err != nil {
		t.Fatal(err)
	}
	if v.FixnumValue() != 100*(40*41/2) {
		t.Fatalf("got %d", v.FixnumValue())
	}
	if h.Stats.Collections == 0 {
		t.Fatal("expected collections during compiled execution")
	}
	if errs := h.Verify(); len(errs) > 0 {
		t.Fatalf("heap unsound after compiled run: %v", errs[0])
	}
}

func TestCompiledClosuresCaptureEnvironment(t *testing.T) {
	m := newMachine(t)
	got := evalStr(t, m, `
		(define (make-counter)
		  (let ([n 0])
		    (lambda () (set! n (+ n 1)) n)))
		(define c1 (make-counter))
		(define c2 (make-counter))
		(c1) (c1) (c2)
		(list (c1) (c2))`)
	if got != "(3 2)" {
		t.Fatalf("closure capture got %s", got)
	}
}

func TestCompiledErrors(t *testing.T) {
	m := newMachine(t)
	for _, src := range []string{
		"(undefined-var-xyz)",
		"(car 5)",
		"((lambda (x) x))",
		"((lambda (x) x) 1 2)",
		"(1 2)",
		"(set! undefined-xyz 1)",
		"(let ([x]) x)",
		"(letrec ([f (g)] [g (lambda () 1)]) f)", // use before init
	} {
		if _, err := m.EvalString(src); err == nil {
			t.Errorf("compiled %q: expected error", src)
		}
	}
	// Machine still consistent.
	if got := evalStr(t, m, "(+ 1 1)"); got != "2" {
		t.Fatal("machine broken after compiled errors")
	}
}

func TestCompiledDynamicWindAndCallCC(t *testing.T) {
	m := newMachine(t)
	got := evalStr(t, m, `
		(define trace '())
		(call/cc (lambda (k)
		  (dynamic-wind
		    (lambda () (set! trace (cons 'in trace)))
		    (lambda () (k 'escaped))
		    (lambda () (set! trace (cons 'out trace))))))
		(reverse trace)`)
	if got != "(in out)" {
		t.Fatalf("dynamic-wind in compiled code got %s", got)
	}
}

func TestCompiledDeepNonTailRecursion(t *testing.T) {
	m := newMachine(t)
	got := evalStr(t, m, `
		(define (sum-to n) (if (zero? n) 0 (+ n (sum-to (- n 1)))))
		(sum-to 10000)`)
	if got != "50005000" {
		t.Fatalf("got %s", got)
	}
}

func TestCompiledTransportGuardianAndTable(t *testing.T) {
	m := newMachine(t)
	got := evalStr(t, m, `
		(define (phash k size) (modulo (car k) size))
		(define tbl (make-guarded-hash-table phash 13))
		(define k1 (cons 1 'k1))
		(tbl k1 'v1)
		(tbl k1 'other)`)
	if got != "v1" {
		t.Fatalf("guarded table via compiled code got %s", got)
	}
}

func TestCompilerShadowedKeyword(t *testing.T) {
	m := newMachine(t)
	got := evalStr(t, m, "(let ([if (lambda (a b c) 'shadowed)]) (if 1 2 3))")
	if got != "shadowed" {
		t.Fatalf("got %s", got)
	}
}

func TestCompiledSymbolPruningInterop(t *testing.T) {
	h := heap.NewDefault()
	m := scheme.New(h, nil)
	m.EnableSymbolPruning(true)
	// Compiled code's constants keep their symbols alive even with
	// pruning on: the code object is heap data the closure reaches.
	if _, err := m.EvalString(`(define (uses-sym) 'kept-by-code)`); err != nil {
		t.Fatal(err)
	}
	m.MustEval("(collect 3)")
	got := evalStr(t, m, "(uses-sym)")
	if got != "kept-by-code" {
		t.Fatalf("code constant symbol lost: %s", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var _ = strings.Contains
