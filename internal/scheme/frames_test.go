package scheme

import (
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// Tests for frame placement (compile.go, vm.go): a lambda clause whose
// variables no nested lambda refers to keeps its frame on the VM's
// value stack; a captured clause's frame is a heap vector. Every
// program runs on the VM and on the reference evaluator, which builds
// association-list frames and knows nothing of placement, and the
// placements the compiler chose are checked, so each case exercises
// the frames it names.

// frameCase is one program, its value, and the placement of the
// clauses of the procedures it defines ("stack" or "heap"; a
// case-lambda's clauses comma-separated).
type frameCase struct {
	name, src, want string
	places          map[string]string
}

// placement renders the frame placement of the clauses of the
// compiled procedure bound to global name.
func placement(m *Machine, name string) string {
	h := m.H
	code := h.RecordRef(h.SymbolValue(m.Intern(name)), 0)
	clauses := []obj.Value{code}
	if shapeOf(h.VectorRef(code, shapeSlot)).kind == kindCaseLambda {
		clauses = clauses[:0]
		for i := constsSlot; i < h.VectorLength(code); i++ {
			clauses = append(clauses, h.VectorRef(code, i))
		}
	}
	var out []string
	for _, cl := range clauses {
		if shapeOf(h.VectorRef(cl, shapeSlot)).stack {
			out = append(out, "stack")
		} else {
			out = append(out, "heap")
		}
	}
	return strings.Join(out, ",")
}

// runFrameCase runs c on a fresh machine on the VM and on the
// reference evaluator and checks the value, the placements, that the
// VM left its stacks empty, and that the heap verifies.
func runFrameCase(t *testing.T, c frameCase) {
	t.Helper()
	for _, compiled := range []bool{true, false} {
		m, eval := NewReference(heap.NewDefault(), nil), (*Machine).RefEvalString
		if compiled {
			m, eval = New(heap.NewDefault(), nil), (*Machine).EvalString
		}
		v, err := eval(m, c.src)
		if err != nil {
			t.Fatalf("%s (compiled %v): %v", c.name, compiled, err)
		}
		if got := m.WriteString(v); got != c.want {
			t.Fatalf("%s (compiled %v): got %s, want %s", c.name, compiled, got, c.want)
		}
		if errs := m.H.Verify(); len(errs) > 0 {
			t.Fatalf("%s (compiled %v): %v", c.name, compiled, errs[0])
		}
		if !compiled {
			continue
		}
		if len(m.stack) != 0 || len(m.vmFrames) != 0 {
			t.Fatalf("%s: VM left %d stack words and %d frames", c.name, len(m.stack), len(m.vmFrames))
		}
		for name, want := range c.places {
			if got := placement(m, name); got != want {
				t.Errorf("%s: %s's frames are %s, want %s", c.name, name, got, want)
			}
		}
	}
}

func TestFramePlacement(t *testing.T) {
	for _, c := range []frameCase{
		{name: "internal defines",
			src: `(define (f x)
			        (define a (* x 2))
			        (define (g y) (+ y 1))
			        (g a))
			      (define (f2 x)
			        (define a (* x 2))
			        (define (g y) (+ y a))
			        (g x))
			      (list (f 5) (f2 5))`,
			want:   "(11 15)",
			places: map[string]string{"f": "stack", "f2": "heap"}},
		{name: "set! on stack and captured variables",
			src: `(define (bump x) (set! x (+ x 1)) (set! x (* x 2)) x)
			      (define (counter)
			        (define n 0)
			        (lambda () (set! n (+ n 1)) n))
			      (define c (counter))
			      (c) (c)
			      (list (bump 4) (c))`,
			want:   "(10 3)",
			places: map[string]string{"bump": "stack", "counter": "heap"}},
		{name: "rest lists",
			src: `(define (r a . rest) (list a rest))
			      (define (r0 . xs) xs)
			      (define (rc . xs) (lambda () xs))
			      (list (r 1) (r 1 2) (r 1 2 3 4 5) (r0) (r0 9) (r0 7 8 9) ((rc)) ((rc 1 2)))`,
			want:   "((1 ()) (1 (2)) (1 (2 3 4 5)) () (9) (7 8 9) () (1 2))",
			places: map[string]string{"r": "stack", "r0": "stack", "rc": "heap"}},
		{name: "case-lambda with mixed placements",
			src: `(define cl
			        (case-lambda
			          [(a) (* a 2)]
			          [(a b) (lambda () (+ a b))]
			          [(a . r) (list a (length r))]))
			      (list (cl 3) ((cl 3 4)) (cl 1 2 3))`,
			want:   "(6 7 (1 2))",
			places: map[string]string{"cl": "stack,heap,stack"}},
		{name: "tail calls between placements",
			src: `(define (h1 a b c) (lambda () (+ a b c)))
			      (define (s1 x) (h1 x (+ x 1) (+ x 2)))
			      (define (s3 x) (* x 10))
			      (define (s2 a b c d e) (s3 (+ a b c d e)))
			      (define (s4 x) (s2 x x x x x))
			      (define (h2 x) (define k (lambda () x)) (s3 (k)))
			      (define (ping n acc)
			        (if (= n 0) acc (pong (- n 1) (+ acc 1) 'pad 'pad)))
			      (define (pong n acc p q)
			        (define keep (lambda () p))
			        (ping n acc))
			      (list ((s1 1)) (s4 2) (h2 7) (ping 20001 0))`,
			want: "(6 100 70 20001)",
			places: map[string]string{"h1": "heap", "s1": "stack", "s2": "stack",
				"s3": "stack", "s4": "stack", "h2": "heap", "ping": "stack", "pong": "heap"}},
		{name: "call/cc escape and dynamic-wind from a stack frame",
			src: `(define esc-k #f)
			      (define trace '())
			      (define (escaper k x) (k (* x 2)) 'never)
			      (define (esc x) (+ x (call/cc (lambda (k) (escaper k 21)))))
			      (define (thunk) (esc-k 'escaped) 'never)
			      (define (dw x)
			        (list x (call/cc (lambda (k)
			          (set! esc-k k)
			          (dynamic-wind
			            (lambda () (set! trace (cons 'in trace)))
			            thunk
			            (lambda () (set! trace (cons 'out trace))))))
			              x))
			      (list (esc 100) (dw 5) (reverse trace))`,
			want:   "(142 (5 escaped 5) (in out))",
			places: map[string]string{"escaper": "stack", "esc": "stack", "dw": "stack"}},
		{name: "map and apply into stack-frame closures",
			src: `(define (sq x) (* x x))
			      (define (spread a b . r) (list a b r))
			      (list (map sq '(1 2 3))
			            (map (lambda (x y) (+ x y)) '(1 2) '(10 20))
			            (apply spread 1 2 '(3 4))
			            (apply spread '(1 2))
			            (for-each sq '(1 2)))`,
			want:   "((1 4 9) (11 22) (1 2 (3 4)) (1 2 ()) #<void>)",
			places: map[string]string{"sq": "stack", "spread": "stack"}},
	} {
		t.Run(c.name, func(t *testing.T) { runFrameCase(t, c) })
	}
}

// TestFrameUseBeforeInit: an internal define read before its
// initialization fails with the same text whether the frame is on the
// stack or captured, and the machine runs on.
func TestFrameUseBeforeInit(t *testing.T) {
	const defs = `
		(define (early) (define a b) (define b 1) a)
		(define (early-captured) (define a (lambda () b)) (define c (a)) (define b 1) c)`
	m, im := New(heap.NewDefault(), nil), NewReference(heap.NewDefault(), nil)
	if _, err := m.EvalString(defs); err != nil {
		t.Fatal(err)
	}
	if _, err := im.RefEvalString(defs); err != nil {
		t.Fatal(err)
	}
	if got := placement(m, "early") + " " + placement(m, "early-captured"); got != "stack heap" {
		t.Fatalf("placements %s, want stack heap", got)
	}
	for _, call := range []string{"(early)", "(early-captured)"} {
		if _, err := m.EvalString(call); err == nil ||
			err.Error() != "vm: variable used before initialization in lambda" {
			t.Errorf("%s: compiled error %v", call, err)
		}
		if _, err := im.RefEvalString(call); err == nil {
			t.Errorf("%s: the reference evaluator raised no error", call)
		}
	}
	if v, err := m.EvalString("(+ 1 2)"); err != nil || m.WriteString(v) != "3" {
		t.Fatalf("machine after the errors: %s %v", m.WriteString(v), err)
	}
}

// TestStackFrameSlotIsARoot: a list whose only reference is a stack
// frame's slot survives forced collections of every generation — the
// collector forwards the slot in place — and the heap verifies.
func TestStackFrameSlotIsARoot(t *testing.T) {
	runFrameCase(t, frameCase{name: "slot root",
		src: `(define (walk l n)
		        (if (= n 0)
		            (apply + l)
		            (begin (collect (if (even? n) 0 3)) (iota 500) (walk l (- n 1)))))
		      (walk (iota 1000) 12)`,
		want:   "499500",
		places: map[string]string{"walk": "stack"}})
}

// TestTemplateCarriesStackFrameCode: a template-carried procedure with
// a stack frame runs on an attached clone, writing nothing the
// template shares, and runs again after a full collection.
func TestTemplateCarriesStackFrameCode(t *testing.T) {
	donor := New(heap.NewDefault(), nil)
	if _, err := donor.EvalString(`
		(define (sum-squares l)
		  (let loop ((l l) (s 0))
		    (if (null? l) s (loop (cdr l) (+ s (* (car l) (car l)))))))
		(define (sum-to n . rest) (sum-squares (iota n)))`); err != nil {
		t.Fatal(err)
	}
	tpl, err := CaptureTemplate(donor)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := tpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c := tpl.Attach(h, nil)
	if got := placement(c, "sum-squares") + " " + placement(c, "sum-to"); got != "stack stack" {
		t.Fatalf("placements %s, want stack stack", got)
	}
	for round := 0; round < 2; round++ {
		v, err := c.EvalString("(sum-to 10 'x 'y)")
		if err != nil {
			t.Fatal(err)
		}
		if n := c.H.COWCopies(); round == 0 && n != 0 {
			t.Errorf("running template code took %d copy-on-write faults", n)
		}
		if got := c.WriteString(v); got != "285" {
			t.Fatalf("round %d: got %s, want 285", round, got)
		}
		c.H.Collect(c.H.MaxGeneration())
		if errs := c.H.Verify(); len(errs) > 0 {
			t.Fatalf("clone heap: %v", errs[0])
		}
	}
}

// serveDefs are the request handlers of the server benchmark's
// sessions (bench/wl_serve.go); compiling them needs none of the
// server's primitives bound.
const serveDefs = `(begin
  (define state '())
  (define total 0)
  (define writes 0)
  (define (build k n)
    (let loop ((i (- n 1)) (acc '()))
      (if (< i 0) acc (loop (- i 1) (cons (+ k i) acc)))))
  (define (sum l)
    (let loop ((l l) (s 0))
      (if (null? l) s (loop (cdr l) (+ s (car l))))))
  (define (work k n)
    (set! state (build k n))
    (set! total (+ total (sum state)))
    total)
  (define (log-line s)
    (display s port)
    (set! writes (+ writes 1))
    writes)
  (define (exchange to v)
    (send-message to (list v))
    (let ((m (receive)))
      (if m (let ((x (car m))) (message-done m) x) -1)))
  0)`

// TestFrameHeapWords pins the heap words the serve handlers cost.
// Compiling them costs what it did when every frame was a heap vector:
// the marking pass allocates nothing. A (work 100 125) request, read,
// compiled and run, allocates its 125 pairs and, besides the request's
// own code, only the frames the named lets' loop closures capture:
// build's, and each let's letrec frame. With every frame on the heap
// it was 1 313 words.
func TestFrameHeapWords(t *testing.T) {
	m := New(heap.NewDefault(), nil)
	forms, err := m.ReadAll(serveDefs)
	if err != nil {
		t.Fatal(err)
	}
	w0 := m.H.Stats.WordsAllocated
	code, err := m.CompileTop(forms[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := m.H.Stats.WordsAllocated - w0; got != 382 {
		t.Errorf("compiling the serve handlers allocated %d words, want 382", got)
	}
	if _, err := m.RunCode(code); err != nil {
		t.Fatal(err)
	}
	if got := placement(m, "build") + " " + placement(m, "sum") + " " + placement(m, "work"); got != "heap stack stack" {
		t.Errorf("build, sum, work frames: %s", got)
	}
	w0 = m.H.Stats.WordsAllocated
	v, err := m.EvalString("(work 100 125)")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.WriteString(v); got != "20250" {
		t.Fatalf("(work 100 125) = %s", got)
	}
	if got := m.H.Stats.WordsAllocated - w0; got != 298 {
		t.Errorf("(work 100 125) allocated %d words, want 298", got)
	}
}
