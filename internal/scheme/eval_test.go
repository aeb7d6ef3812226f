package scheme_test

import (
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/scheme"
)

func newMachine(t *testing.T) *scheme.Machine {
	t.Helper()
	return scheme.New(heap.NewDefault(), nil)
}

// evalStr evaluates src and returns the written form of the result.
func evalStr(t *testing.T, m *scheme.Machine, src string) string {
	t.Helper()
	v, err := m.EvalString(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return m.WriteString(v)
}

func expectEval(t *testing.T, m *scheme.Machine, src, want string) {
	t.Helper()
	if got := evalStr(t, m, src); got != want {
		t.Errorf("eval %q = %s, want %s", src, got, want)
	}
}

func TestSelfEvaluating(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "42", "42")
	expectEval(t, m, "-17", "-17")
	expectEval(t, m, "#t", "#t")
	expectEval(t, m, "#f", "#f")
	expectEval(t, m, `"hello"`, `"hello"`)
	expectEval(t, m, `#\a`, `#\a`)
	expectEval(t, m, `#\space`, `#\space`)
	expectEval(t, m, "3.5", "3.5")
}

func TestQuoteAndData(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "'foo", "foo")
	expectEval(t, m, "'(1 2 3)", "(1 2 3)")
	expectEval(t, m, "'(1 . 2)", "(1 . 2)")
	expectEval(t, m, "'(a (b c) d)", "(a (b c) d)")
	expectEval(t, m, "'()", "()")
	expectEval(t, m, "''x", "'x")
	expectEval(t, m, "'#(1 2 3)", "#(1 2 3)")
}

func TestArithmetic(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(+ 1 2 3)", "6")
	expectEval(t, m, "(+)", "0")
	expectEval(t, m, "(* 2 3 4)", "24")
	expectEval(t, m, "(- 10 3 2)", "5")
	expectEval(t, m, "(- 5)", "-5")
	expectEval(t, m, "(/ 10 2)", "5")
	expectEval(t, m, "(/ 1 2)", "0.5")
	expectEval(t, m, "(quotient 7 2)", "3")
	expectEval(t, m, "(remainder 7 2)", "1")
	expectEval(t, m, "(modulo -7 3)", "2")
	expectEval(t, m, "(+ 1 2.5)", "3.5")
	expectEval(t, m, "(= 3 3)", "#t")
	expectEval(t, m, "(< 1 2 3)", "#t")
	expectEval(t, m, "(< 1 3 2)", "#f")
	expectEval(t, m, "(>= 3 3 2)", "#t")
	expectEval(t, m, "(min 3 1 2)", "1")
	expectEval(t, m, "(max 3 1 2)", "3")
	expectEval(t, m, "(abs -4)", "4")
	expectEval(t, m, "(zero? 0)", "#t")
	expectEval(t, m, "(even? 4)", "#t")
	expectEval(t, m, "(odd? 4)", "#f")
}

func TestDefineSetLambda(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(begin (define x 10) x)", "10")
	expectEval(t, m, "(begin (set! x 20) x)", "20")
	expectEval(t, m, "(begin (define (f a b) (+ a b)) (f 1 2))", "3")
	expectEval(t, m, "((lambda (x) (* x x)) 7)", "49")
	expectEval(t, m, "((lambda args args) 1 2 3)", "(1 2 3)")
	expectEval(t, m, "((lambda (a . rest) rest) 1 2 3)", "(2 3)")
	expectEval(t, m, "(begin (define (g . xs) (length xs)) (g 1 2 3 4))", "4")
}

func TestClosuresCaptureEnvironment(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, `
		(begin
		  (define (make-counter)
		    (let ([n 0])
		      (lambda () (set! n (+ n 1)) n)))
		  (define c1 (make-counter))
		  (define c2 (make-counter))
		  (c1) (c1) (c2)
		  (list (c1) (c2)))`, "(3 2)")
}

func TestCaseLambda(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, `
		(begin
		  (define f (case-lambda
		              [() 'zero]
		              [(a) (list 'one a)]
		              [(a . rest) (list 'many a rest)]))
		  (list (f) (f 1) (f 1 2 3)))`,
		"(zero (one 1) (many 1 (2 3)))")
}

func TestConditionals(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(if #t 1 2)", "1")
	expectEval(t, m, "(if #f 1 2)", "2")
	expectEval(t, m, "(if '() 1 2)", "1") // only #f is false
	expectEval(t, m, "(if #f 1)", "#<void>")
	expectEval(t, m, "(cond [#f 1] [#t 2] [else 3])", "2")
	expectEval(t, m, "(cond [#f 1] [else 3])", "3")
	expectEval(t, m, "(cond [5])", "5")
	expectEval(t, m, "(cond [(assq 'b '((a 1) (b 2))) => cadr] [else 'no])", "2")
	expectEval(t, m, "(case 2 [(1) 'one] [(2 3) 'two-or-three] [else 'other])", "two-or-three")
	expectEval(t, m, "(case 9 [(1) 'one] [else 'other])", "other")
	expectEval(t, m, "(and 1 2 3)", "3")
	expectEval(t, m, "(and 1 #f 3)", "#f")
	expectEval(t, m, "(and)", "#t")
	expectEval(t, m, "(or #f 2)", "2")
	expectEval(t, m, "(or #f #f)", "#f")
	expectEval(t, m, "(or)", "#f")
	expectEval(t, m, "(when #t 1 2)", "2")
	expectEval(t, m, "(when #f 1 2)", "#<void>")
	expectEval(t, m, "(unless #f 'ran)", "ran")
}

func TestLetForms(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(let ([x 1] [y 2]) (+ x y))", "3")
	expectEval(t, m, "(let ([x 1]) (let ([x 2] [y x]) (list x y)))", "(2 1)")
	expectEval(t, m, "(let* ([x 1] [y (+ x 1)]) (list x y))", "(1 2)")
	expectEval(t, m, `
		(letrec ([even? (lambda (n) (if (zero? n) #t (odd? (- n 1))))]
		         [odd?  (lambda (n) (if (zero? n) #f (even? (- n 1))))])
		  (even? 10))`, "#t")
	expectEval(t, m, "(let loop ([i 0] [acc '()]) (if (= i 3) acc (loop (+ i 1) (cons i acc))))", "(2 1 0)")
}

func TestDoLoop(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(do ([i 0 (+ i 1)] [s 0 (+ s i)]) ((= i 5) s))", "10")
	expectEval(t, m, `
		(let ([v (make-vector 3 0)])
		  (do ([i 0 (+ i 1)]) ((= i 3) v)
		    (vector-set! v i (* i i))))`, "#(0 1 4)")
}

func TestTailCallsDontGrowStack(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, `
		(begin
		  (define (count n) (if (zero? n) 'done (count (- n 1))))
		  (count 100000))`, "done")
	expectEval(t, m, `
		(let loop ([i 0]) (if (= i 50000) i (loop (+ i 1))))`, "50000")
}

func TestQuasiquote(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "`(1 2 ,(+ 1 2))", "(1 2 3)")
	expectEval(t, m, "`(1 ,@(list 2 3) 4)", "(1 2 3 4)")
	// The R4RS appendix example: the innermost unquote is at level 0
	// and evaluates; the outer one is retained.
	expectEval(t, m, "`(a `(b ,(c ,(+ 1 2))))", "(a `(b ,(c 3)))")
	expectEval(t, m, "`#(1 ,(+ 1 1))", "#(1 2)")
}

func TestListPrimitives(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(length '(a b c))", "3")
	expectEval(t, m, "(append '(1 2) '(3) '())", "(1 2 3)")
	expectEval(t, m, "(reverse '(1 2 3))", "(3 2 1)")
	expectEval(t, m, "(memq 'c '(a b c d))", "(c d)")
	expectEval(t, m, "(memq 'z '(a b c))", "#f")
	expectEval(t, m, "(assq 'b '((a 1) (b 2)))", "(b 2)")
	expectEval(t, m, "(remq 'b '(a b c b))", "(a c)")
	expectEval(t, m, "(list-ref '(a b c) 1)", "b")
	expectEval(t, m, "(map (lambda (x) (* x x)) '(1 2 3))", "(1 4 9)")
	expectEval(t, m, "(map + '(1 2) '(10 20))", "(11 22)")
	expectEval(t, m, "(filter odd? '(1 2 3 4 5))", "(1 3 5)")
	expectEval(t, m, "(iota 4)", "(0 1 2 3)")
	expectEval(t, m, "(member \"b\" '(\"a\" \"b\"))", `("b")`)
	expectEval(t, m, "(equal? '(1 (2 3)) '(1 (2 3)))", "#t")
	expectEval(t, m, "(eq? 'a 'a)", "#t")
	expectEval(t, m, `(eq? "a" "a")`, "#f") // distinct string objects
}

func TestVectorsAndStrings(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(vector 1 2 3)", "#(1 2 3)")
	expectEval(t, m, "(vector-ref (vector 'a 'b) 1)", "b")
	expectEval(t, m, "(vector-length (make-vector 7 0))", "7")
	expectEval(t, m, "(vector->list #(1 2))", "(1 2)")
	expectEval(t, m, "(list->vector '(1 2))", "#(1 2)")
	expectEval(t, m, `(string-append "foo" "bar")`, `"foobar"`)
	expectEval(t, m, `(string-length "hello")`, "5")
	expectEval(t, m, `(substring "hello" 1 3)`, `"el"`)
	expectEval(t, m, `(string=? "ab" "ab")`, "#t")
	expectEval(t, m, `(symbol->string 'foo)`, `"foo"`)
	expectEval(t, m, `(string->symbol "bar")`, "bar")
	expectEval(t, m, `(string->number "42")`, "42")
	expectEval(t, m, `(number->string 42)`, `"42"`)
}

func TestInternalDefines(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, `
		(begin
		  (define (f x)
		    (define y (* x 2))
		    (define (g z) (+ z y))
		    (g 1))
		  (f 10))`, "21")
	// Mutually recursive internal defines.
	expectEval(t, m, `
		(begin
		  (define (h n)
		    (define (even2? n) (if (zero? n) #t (odd2? (- n 1))))
		    (define (odd2? n) (if (zero? n) #f (even2? (- n 1))))
		    (even2? n))
		  (h 8))`, "#t")
}

func TestApplyAndHigherOrder(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(apply + '(1 2 3))", "6")
	expectEval(t, m, "(apply + 1 2 '(3 4))", "10")
	expectEval(t, m, "(apply cons '(1 2))", "(1 . 2)")
	expectEval(t, m, "(procedure? car)", "#t")
	expectEval(t, m, "(procedure? (lambda () 1))", "#t")
	expectEval(t, m, "(procedure? 'car)", "#f")
}

func TestBoxes(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(unbox (box 5))", "5")
	expectEval(t, m, "(let ([b (box 1)]) (set-box! b 9) (unbox b))", "9")
}

func TestErrors(t *testing.T) {
	m := newMachine(t)
	for _, src := range []string{
		"(car 5)",
		"(undefined-variable-xyz)",
		"(+ 'a 1)",
		"((lambda (x) x))",      // arity
		"((lambda (x) x) 1 2)",  // arity
		"(1 2 3)",               // non-procedure
		"(error \"boom\" 'ctx)", // explicit
		"(set! undefined-xyz 1)",
		"(vector-ref (vector 1) 5)",
		"(quotient 1 0)",
		"(let ([x]) x)",
	} {
		if _, err := m.EvalString(src); err == nil {
			t.Errorf("eval %q: expected error, got none", src)
		}
	}
	// Machine still usable after errors.
	expectEval(t, m, "(+ 1 1)", "2")
}

func TestDeepNonTailRecursionIsAnError(t *testing.T) {
	m := newMachine(t)
	_, err := m.EvalString(`
		(begin (define (f n) (if (zero? n) 0 (+ 1 (f (- n 1)))))
		       (f 1000000))`)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("expected depth error, got %v", err)
	}
}

func TestShadowingSpecialFormKeyword(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(let ([if (lambda (a b c) 'shadowed)]) (if 1 2 3))", "shadowed")
}

func TestDisplayOutput(t *testing.T) {
	m := newMachine(t)
	var sb strings.Builder
	m.Out = &sb
	m.MustEval(`(begin (display "hi ") (display 42) (newline) (write "q"))`)
	if sb.String() != "hi 42\n\"q\"" {
		t.Fatalf("output = %q", sb.String())
	}
}

func TestEvalWithConstantCollections(t *testing.T) {
	// A tiny nursery forces collections mid-evaluation, exercising the
	// shadow-stack rooting discipline end to end.
	h := heap.MustNew(heap.Config{Generations: 4, Policy: heap.RadixPolicy{Trigger: 2048, Radix: 4}, UseDirtySet: true})
	m := scheme.New(h, nil)
	v, err := m.EvalString(`
		(begin
		  (define (build n) (if (zero? n) '() (cons n (build (- n 1)))))
		  (define (sum ls) (if (null? ls) 0 (+ (car ls) (sum (cdr ls)))))
		  (let loop ([i 0] [total 0])
		    (if (= i 100)
		        total
		        (loop (+ i 1) (+ total (sum (build 40)))))))`)
	if err != nil {
		t.Fatal(err)
	}
	if v.FixnumValue() != 100*(40*41/2) {
		t.Fatalf("got %v, want %d", v.FixnumValue(), 100*(40*41/2))
	}
	if h.Stats.Collections == 0 {
		t.Fatal("test expected automatic collections to fire")
	}
}

func TestGCPrimitives(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(begin (define p (cons 1 2)) (generation p))", "0")
	expectEval(t, m, "(begin (collect 0) (generation p))", "1")
	expectEval(t, m, "(generation 42)", "-1")
	expectEval(t, m, "(pair? (weak-cons 1 2))", "#t")
	expectEval(t, m, "(weak-pair? (weak-cons 1 2))", "#t")
	expectEval(t, m, "(weak-pair? (cons 1 2))", "#f")
	expectEval(t, m, "(car (weak-cons 'a 'b))", "a")
	expectEval(t, m, "(cdr (weak-cons 'a 'b))", "b")
}

func TestCollectRequestHandlerScheme(t *testing.T) {
	h := heap.MustNew(heap.Config{Generations: 4, Policy: heap.RadixPolicy{Trigger: 4096, Radix: 4}, UseDirtySet: true})
	m := scheme.New(h, nil)
	v, err := m.EvalString(`
		(begin
		  (define handler-runs 0)
		  (collect-request-handler
		    (lambda ()
		      (set! handler-runs (+ handler-runs 1))
		      (collect)))
		  (define (burn n) (if (zero? n) 'ok (begin (cons 1 2) (burn (- n 1)))))
		  (burn 20000)
		  handler-runs)`)
	if err != nil {
		t.Fatal(err)
	}
	if v.FixnumValue() == 0 {
		t.Fatal("scheme-level collect-request-handler never ran")
	}
}

// TestCollectRequestHandlerDuringCompiledLoop: the handler runs at the
// VM's safe points (calls and backward jumps) and itself calls compiled
// code that makes a non-tail compiled call, so each run pushes VM
// frames and may move the frame stack the running loop's frame lives
// in. Each loop allocates last before its back-edge, so the handler
// runs there; the loops, a self tail call and a do loop, must still
// count every iteration.
func TestCollectRequestHandlerDuringCompiledLoop(t *testing.T) {
	h := heap.MustNew(heap.Config{Generations: 4, Policy: heap.RadixPolicy{Trigger: 4096, Radix: 4}, UseDirtySet: true})
	m := scheme.New(h, nil)
	if _, err := m.EvalString(`
		(define (inc x) (+ x 1))
		(define (twice x) (inc (inc x)))`); err != nil {
		t.Fatal(err)
	}
	// The handler, like what it calls, is compiled.
	expectEval(t, m, `
		(define handler-runs 0)
		(define (handler)
		  (set! handler-runs (- (twice handler-runs) 1))
		  (collect))
		(collect-request-handler handler)
		(string? (disassemble handler))`, "#t")
	for _, tc := range []struct{ src, want string }{
		{`(define (burn n acc) (if (zero? n) (length acc) (burn (- n 1) (cons n acc))))
		  (burn 20000 '())`, "20000"},
		{`(do ((i 0 (+ i 1)) (acc '() (cons i acc))) ((= i 20000) (length acc)))`, "20000"},
	} {
		before := h.Stats.Collections
		v, err := m.EvalString(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.WriteString(v); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.src, got, tc.want)
		}
		if h.Stats.Collections == before {
			t.Errorf("%s: no collection ran", tc.src)
		}
	}
	expectEval(t, m, "(> handler-runs 0)", "#t")
	if errs := h.Verify(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}

func TestReaderErrors(t *testing.T) {
	m := newMachine(t)
	for _, src := range []string{"(", ")", "(1 . )", `"unterminated`, "#z", "(1 . 2 3)"} {
		if _, err := m.EvalString(src); err == nil {
			t.Errorf("read %q: expected error", src)
		}
	}
}

func TestReaderComments(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "; line comment\n 42", "42")
	expectEval(t, m, "#| block |# 7", "7")
	expectEval(t, m, "#| nested #| deeper |# |# 8", "8")
}

func TestPrinterSharedShorthand(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "'(quote a)", "'a")
	expectEval(t, m, "'(quasiquote a)", "`a")
	expectEval(t, m, "'(unquote a)", ",a")
}

func TestSymbolInterningStableAcrossGC(t *testing.T) {
	m := newMachine(t)
	h := m.H
	s1 := m.Intern("stable-sym")
	r := h.NewRoot(s1)
	h.Collect(h.MaxGeneration())
	s2 := m.Intern("stable-sym")
	if r.Get() != s2 {
		t.Fatal("interning broke across a collection")
	}
	expectEval(t, m, "(eq? 'zz 'zz)", "#t")
}

var _ = obj.Nil

func TestFuelBudget(t *testing.T) {
	m := newMachine(t)
	m.SetFuel(100000)
	expectEval(t, m, "(+ 1 2)", "3") // plenty of fuel for small programs
	m.SetFuel(5000)
	_, err := m.EvalString("(let loop () (loop))") // infinite tail loop
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("infinite loop should exhaust fuel, got %v", err)
	}
	m.SetFuel(5000)
	_, err = m.EvalString("(do ([i 0 (+ 1)]) ((= i 3) i))") // the fuzzer's find
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("non-advancing do should exhaust fuel, got %v", err)
	}
	// Unlimited again.
	m.SetFuel(-1)
	expectEval(t, m, "(let loop ([i 0]) (if (= i 100000) i (loop (+ i 1))))", "100000")
}
