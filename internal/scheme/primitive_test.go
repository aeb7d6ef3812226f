package scheme_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/scheme"
)

// bothEngines runs src on a fresh machine on the VM and on the
// reference evaluator and checks the written result against want.
func bothEngines(t *testing.T, src, want string) {
	t.Helper()
	for _, engine := range []string{"reference", "vm"} {
		m, eval := scheme.New(heap.NewDefault(), nil), (*scheme.Machine).EvalString
		if engine == "reference" {
			m, eval = scheme.NewReference(heap.NewDefault(), nil), (*scheme.Machine).RefEvalString
		}
		v, err := eval(m, src)
		if err != nil {
			t.Errorf("%s: %s: %v", engine, src, err)
			continue
		}
		if got := m.WriteString(v); got != want {
			t.Errorf("%s: %s = %s, want %s", engine, src, got, want)
		}
		if errs := m.H.Verify(); len(errs) > 0 {
			t.Errorf("%s: %s: heap unsound: %v", engine, src, errs[0])
		}
	}
}

// TestFixnumComparisonsExact: fixnums beyond 2^53 compare exactly —
// converting both to float64 made distinct ones equal — while a
// flonum operand still compares as float64.
func TestFixnumComparisonsExact(t *testing.T) {
	for src, want := range map[string]string{
		"(= 9007199254740993 9007199254740992)":   "#f",
		"(< 9007199254740992 9007199254740993)":   "#t",
		"(> 9007199254740993 9007199254740992)":   "#t",
		"(<= 9007199254740993 9007199254740992)":  "#f",
		"(>= 9007199254740992 9007199254740993)":  "#f",
		"(max 9007199254740992 9007199254740993)": "9007199254740993",
		"(min 9007199254740993 9007199254740992)": "9007199254740992",
		"(< 1 9007199254740992 9007199254740993)": "#t",
		"(= 1 1.0)":     "#t",
		"(< 1 1.5 2)":   "#t",
		"(max 1 2.0)":   "2.0",
		"(min 3 2.5 4)": "2.5",
	} {
		bothEngines(t, src, want)
	}
}

// TestPrimitiveRebindingAfterCompile: a compiled caller looks its
// operator up at run time, so rebinding + or car after it was compiled
// — by define or by set! — reaches it, and the VM integrates only the
// built-in value.
func TestPrimitiveRebindingAfterCompile(t *testing.T) {
	bothEngines(t, `
		(define (add a b) (+ a b))
		(define (first p) (car p))
		(define before (list (add 3 4) (first '(1 2))))
		(define (+ a b) (* a b))
		(set! car cdr)
		(list before (add 3 4) (first '(1 2)))`,
		"((7 1) 12 (2))")
	bothEngines(t, `
		(define (loop i acc) (if (< i 3) (loop (+ i 1) (cons i acc)) acc))
		(define (cons a b) (list 'c a b))
		(loop 0 '())`,
		"(c 2 (c 1 (c 0 ())))")
}

// TestPrimitivesAsValues: a primitive is an immediate, eq to itself
// wherever it is stored, a procedure, printed by name, and applied by
// apply, map and call/cc like any procedure.
func TestPrimitivesAsValues(t *testing.T) {
	for src, want := range map[string]string{
		"(list (eq? car car) (eq? car cdr) (eqv? + +))": "(#t #f #t)",
		"(list (procedure? car) (procedure? 'car))":     "(#t #f)",
		"(list car +)":                           "(#<procedure car> #<procedure +>)",
		"(apply + 1 '(2 3))":                     "6",
		"(map car '((1) (2) (3)))":               "(1 2 3)",
		"(map + '(1 2) '(10 20))":                "(11 22)",
		"(call/cc procedure?)":                   "#t",
		"(let ([f (if #t car cdr)]) (f '(a b)))": "a",
		"(let ([v (vector car + cons)]) (collect 3) (list (eq? (vector-ref v 0) car) ((vector-ref v 1) 1 2) ((vector-ref v 2) 'x 'y)))": "(#t 3 (x . y))",
		"(begin (define v (make-vector 100 eq?)) (collect 0) (collect 3) (and ((vector-ref v 99) 'a 'a) (eq? (vector-ref v 0) eq?)))":   "#t",
	} {
		bothEngines(t, src, want)
	}
}

// TestPrimitiveValuesAcrossTemplateAndImage: primitive values held in
// a heap — a global alias, a vector — stay the same primitives on a
// template clone and after a machine-image round trip, and a host
// primitive replayed on a clone takes DefinePrim's fast path and is an
// immediate there too.
func TestPrimitiveValuesAcrossTemplateAndImage(t *testing.T) {
	donor := scheme.New(heap.NewDefault(), nil)
	donor.DefinePrim("host-seven", 0, 0, func(*scheme.Machine, scheme.Args) (obj.Value, error) {
		return obj.FromFixnum(7), nil
	})
	if _, err := donor.EvalString(`
		(define my-car car)
		(define prims (vector car + host-seven))`); err != nil {
		t.Fatal(err)
	}
	const check = `(list (eq? my-car car) (my-car '(1 2)) ((vector-ref prims 1) 2 3)
		((vector-ref prims 2)) (vector-ref prims 0))`
	const want = "(#t 1 5 7 #<procedure car>)"

	tpl, err := scheme.CaptureTemplate(donor)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := tpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c := tpl.Attach(h, nil)
	live := c.H.LiveWords()
	c.DefinePrim("host-seven", 0, 0, func(*scheme.Machine, scheme.Args) (obj.Value, error) {
		return obj.FromFixnum(7), nil
	})
	if c.H.LiveWords() != live {
		t.Fatal("DefinePrim replay on a clone allocated")
	}
	if v := c.H.SymbolValue(c.Intern("host-seven")); !v.IsPrim() {
		t.Fatalf("host-seven on the clone is %v, not a primitive immediate", v)
	}
	v, err := c.EvalString(check)
	if err != nil || c.WriteString(v) != want {
		t.Fatalf("clone: %s, %v; want %s", c.WriteString(v), err, want)
	}

	var img bytes.Buffer
	if err := donor.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	m2, err := scheme.LoadMachineImage(&img, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Until the host re-registers its primitive, the restored value is
	// a primitive with no entry: calling it is an error, not a crash.
	if _, err := m2.EvalString("((vector-ref prims 2))"); err == nil {
		t.Fatal("calling an unregistered host primitive succeeded")
	}
	m2.DefinePrim("host-seven", 0, 0, func(*scheme.Machine, scheme.Args) (obj.Value, error) {
		return obj.FromFixnum(7), nil
	})
	v, err = m2.EvalString(check)
	if err != nil || m2.WriteString(v) != want {
		t.Fatalf("image: %s, %v; want %s", m2.WriteString(v), err, want)
	}
	for _, m := range []*scheme.Machine{donor, c, m2} {
		if errs := m.H.Verify(); len(errs) > 0 {
			t.Fatal(errs[0])
		}
	}
}

// TestSelfTailCall covers the VM's self tail call, which keeps the
// running frame's shape and code views: across collections inside the
// loop (the epoch moves), through a rest-list clause, and — never
// taken — from a case-lambda clause to its own entry.
func TestSelfTailCall(t *testing.T) {
	// A loop whose body collects: every iteration moves the code the
	// frame runs, so the views must be re-taken. The second loop's
	// frame is captured by a closure, so it lives on the heap.
	bothEngines(t, `
		(define (spin n acc)
		  (if (= n 0) acc (begin (collect 0) (spin (- n 1) (cons n acc)))))
		(define (spin-heap n acc)
		  (if (= n 0) (map (lambda (f) (f)) acc)
		      (begin (collect (if (even? n) 0 1))
		             (spin-heap (- n 1) (cons (lambda () n) acc)))))
		(list (spin 5 '()) (spin-heap 4 '()))`,
		"((1 2 3 4 5) (1 2 3 4))")
	bothEngines(t, `
		(define (r n . xs)
		  (cond [(= n 0) xs]
		        [(= n 1) (r 0 xs 'b 'c)]
		        [(= n 2) (r 1 xs)]
		        [else (r 2)]))
		(list (r 3) (r 2 'y) (r 0) (r 0 'q))`,
		"(((()) b c) (((y)) b c) () (q))")
	// Each clause tail-calls the entry, which selects the other
	// clause: reusing the running clause's shape would be wrong.
	bothEngines(t, `
		(define f
		  (case-lambda
		    [(n) (if (= n 0) 'one (f (- n 1) 'x))]
		    [(n m) (if (= n 0) 'two (f n))]))
		(list (f 2) (f 0) (f 0 'z))`,
		"(two one two)")
	// A self call with the wrong arity is still an error. The fuel
	// bound turns a VM that ignored the extra argument — and so looped
	// — into a failure instead of a hang.
	m := scheme.New(heap.NewDefault(), nil)
	m.SetFuel(10000)
	_, err := m.EvalString("(define (g n) (if (= n 0) 'done (g n n))) (g 1)")
	if err == nil || !strings.Contains(err.Error(), "no matching clause") {
		t.Fatalf("self tail call with the wrong arity: %v", err)
	}
}
