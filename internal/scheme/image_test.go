package scheme_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/scheme"
)

func TestMachineImageRoundTrip(t *testing.T) {
	m := scheme.New(heap.NewDefault(), nil)
	m.MustEval(`
		(define counter
		  (let ([n 100])
		    (lambda () (set! n (+ n 1)) n)))
		(counter)  ; n = 101
		(define G (make-guardian))
		(define x (cons 'saved 'pair))
		(G x)
		(define table '((a . 1) (b . 2)))`)

	var buf bytes.Buffer
	if err := m.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}

	m2, err := scheme.LoadMachineImage(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Globals, closures, and captured state survive.
	expectEval(t, m2, "(counter)", "102")
	expectEval(t, m2, "(cdr (assq 'b table))", "2")
	// The guardian (a prelude-made closure over a tconc) survives,
	// including its pending registration.
	expectEval(t, m2, "(begin (set! x #f) (collect 3) (G))", "(saved . pair)")
	expectEval(t, m2, "(G)", "#f")
	// Symbol identity is coherent: re-interning finds the same symbol.
	expectEval(t, m2, "(eq? 'saved (car (quote (saved))))", "#t")
	// Primitives and the prelude work.
	expectEval(t, m2, "(sort < '(3 1 2))", "(1 2 3)")
	expectEval(t, m2, "(map (lambda (i) (* i i)) (iota 4))", "(0 1 4 9)")
	if errs := m2.H.Verify(); len(errs) > 0 {
		t.Fatalf("restored heap unsound: %v", errs[0])
	}
}

func TestMachineImageGensymCounterSurvives(t *testing.T) {
	m := scheme.New(heap.NewDefault(), nil)
	before := m.WriteString(m.MustEval("(gensym)"))
	var buf bytes.Buffer
	if err := m.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := scheme.LoadMachineImage(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := m2.WriteString(m2.MustEval("(gensym)"))
	if before == after {
		t.Fatalf("gensym counter reset across image: %s repeated", after)
	}
}

// TestMachineImageCarriesCompiledCode: compiled closures are heap data,
// so a machine image carries them; the loaded machine calls them,
// collects, and calls them again.
func TestMachineImageCarriesCompiledCode(t *testing.T) {
	m := scheme.New(heap.NewDefault(), nil)
	if _, err := m.EvalString(compiledDefs); err != nil {
		t.Fatal(err)
	}
	expectCompiled := func(m *scheme.Machine, src, want string) {
		t.Helper()
		v, err := m.EvalString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := m.WriteString(v); got != want {
			t.Fatalf("%s = %s, want %s", src, got, want)
		}
	}
	expectCompiled(m, "(counter)", "101")
	var buf bytes.Buffer
	if err := m.SaveImage(&buf); err != nil {
		t.Fatalf("SaveImage of a machine with compiled code: %v", err)
	}
	m2, err := scheme.LoadMachineImage(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		expectCompiled(m2, "(counter)", fmt.Sprint(102+round))
		expectCompiled(m2, "(list (arity) (arity 1) (arity 1 2))", "(none (one 1) (1 2))")
		expectCompiled(m2, "((adder 4 5) 1)", "10")
		expectCompiled(m2, "(table)", `(#(1 2) "three")`)
		m2.H.Collect(m2.H.MaxGeneration())
		if errs := m2.H.Verify(); len(errs) > 0 {
			t.Fatalf("loaded heap after collection: %v", errs[0])
		}
	}
	expectEval(t, m2, "(arity 7)", "(one 7)")
}

// TestMachineImageCompiledPrelude: an image from a machine whose
// prelude was interpreted (format GUARDMACH4) is refused rather than
// loaded with prelude procedures nothing can apply, and a round trip
// keeps the compiled prelude working.
func TestMachineImageCompiledPrelude(t *testing.T) {
	m := scheme.New(heap.NewDefault(), nil)
	var buf bytes.Buffer
	if err := m.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	old := append([]byte("GUARDMACH4\n"), img[len("GUARDMACH5\n"):]...)
	if _, err := scheme.LoadMachineImage(bytes.NewReader(old), nil); err == nil {
		t.Fatal("an image with the old magic was accepted")
	}
	m2, err := scheme.LoadMachineImage(bytes.NewReader(img), nil)
	if err != nil {
		t.Fatal(err)
	}
	expectEval(t, m2, "(string? (disassemble map))", "#t") // compiled
	expectEval(t, m2, "(map (lambda (x) (+ x 1)) '(1 2))", "(2 3)")
}

func TestMachineImageRejectsGarbage(t *testing.T) {
	if _, err := scheme.LoadMachineImage(bytes.NewReader([]byte("junk")), nil); err == nil {
		t.Fatal("garbage accepted as machine image")
	}
}

func TestMachineImageContinuesCollecting(t *testing.T) {
	h := heap.MustNew(heap.Config{Generations: 4, Policy: heap.RadixPolicy{Trigger: 4096, Radix: 4}, UseDirtySet: true})
	m := scheme.New(h, nil)
	m.MustEval("(define (build n) (if (zero? n) '() (cons n (build (- n 1)))))")
	var buf bytes.Buffer
	if err := m.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := scheme.LoadMachineImage(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sustained allocation with automatic collections on the restored
	// machine.
	v := m2.MustEval(`
		(let loop ([i 0] [acc 0])
		  (if (= i 50) acc (loop (+ i 1) (+ acc (length (build 100))))))`)
	if v.FixnumValue() != 5000 {
		t.Fatalf("got %d", v.FixnumValue())
	}
	if m2.H.Stats.Collections == 0 {
		t.Fatal("expected collections on restored machine")
	}
}

// TestMachineImageDropUserState: a loaded machine carries the saved
// machine's permanent-symbol snapshots, so DropUserState reverts a
// rebound built-in and drops the saved program's globals.
func TestMachineImageDropUserState(t *testing.T) {
	m := scheme.New(heap.NewDefault(), nil)
	m.MustEval("(define saved-global (list 1 2 3))")
	var buf bytes.Buffer
	if err := m.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := scheme.LoadMachineImage(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m2.PermanentSymbols(), m.PermanentSymbols(); got != want {
		t.Fatalf("loaded machine has %d permanent symbols, want %d", got, want)
	}
	m2.MustEval("(define car 5)")
	m2.DropUserState()
	expectEval(t, m2, "(car '(1 2))", "1")
	if _, err := m2.EvalString("saved-global"); err == nil {
		t.Fatal("the saved program's global survived DropUserState")
	}
	m2.H.Collect(m2.H.MaxGeneration())
	if errs := m2.H.Verify(); len(errs) > 0 {
		t.Fatalf("heap unsound after DropUserState: %v", errs[0])
	}
}

// TestMachineImageEqualsAttachedClone: a machine image is an encoded
// template, so a machine loaded from a donor's image and one attached
// to a clone of the donor's template print the same answers to one
// transcript — guardian drains, a rebound built-in, DropUserState and
// the pruning flag included.
func TestMachineImageEqualsAttachedClone(t *testing.T) {
	donor := scheme.New(heap.NewDefault(), nil)
	donor.EnableSymbolPruning(true)
	donor.MustEval(`
		(define counter (let ([n 10]) (lambda () (set! n (+ n 1)) n)))
		(define G (make-guardian))
		(define held (list 'held))
		(G held)
		(G (list 'dropped))
		(define (abs x) 'rebound)
		(collect 3)`)
	tpl, err := scheme.CaptureTemplate(donor)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := scheme.LoadMachineImage(bytes.NewReader(machineImage(t, donor)), nil)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := tpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	clone := tpl.Attach(h, nil)

	transcript := []string{
		"(counter)", "(G)", "(G)", "(abs -4)",
		"(begin (set! held #f) (collect 3) (G))", "(G)", "(counter)",
		"(begin (define late 5) (string->symbol \"garbage-symbol\") late)",
		"(collect 3)", "(drop)", "(abs -4)", "late", "(counter)",
		"(map (lambda (x) (* x x)) '(1 2 3))",
	}
	run := func(m *scheme.Machine) []string {
		var out []string
		for _, src := range transcript {
			if src == "(drop)" {
				m.DropUserState()
				out = append(out, fmt.Sprint("interned ", m.InternedSymbols()))
				continue
			}
			v, err := m.EvalString(src)
			if err != nil {
				out = append(out, err.Error())
			} else {
				out = append(out, m.WriteString(v))
			}
		}
		return out
	}
	got, want := run(loaded), run(clone)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: loaded machine printed %s, attached clone %s", transcript[i], got[i], want[i])
		}
	}
	// Spot checks that the transcript exercised what it names.
	for i, w := range map[int]string{1: "(dropped)", 3: "rebound", 4: "(held)", 10: "4"} {
		if want[i] != w {
			t.Fatalf("%s printed %s, want %s", transcript[i], want[i], w)
		}
	}
}

// TestMachineImageKeepsPruning: a machine saved with symbol pruning on
// prunes after loading, and one saved with it off does not.
func TestMachineImageKeepsPruning(t *testing.T) {
	for _, on := range []bool{true, false} {
		m := scheme.New(heap.NewDefault(), nil)
		m.EnableSymbolPruning(on)
		m2, err := scheme.LoadMachineImage(bytes.NewReader(machineImage(t, m)), nil)
		if err != nil {
			t.Fatal(err)
		}
		before := m2.InternedSymbols()
		m2.MustEval(`(string->symbol "unreferenced")`)
		m2.H.Collect(m2.H.MaxGeneration())
		if pruned := m2.InternedSymbols() == before; pruned != on {
			t.Fatalf("saved with pruning %v: %d symbols before, %d after a collection", on, before, m2.InternedSymbols())
		}
	}
}
