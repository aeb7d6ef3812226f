package scheme

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/seg"
)

// Tests for the VM's views of its code (vm.go): the words of the top
// frame's code vector and instruction vector, read in place and kept
// across calls out of compiled code until the frame's code changes or
// the heap moves or privatizes something (heap.Epoch).

// evalBoth runs src on two fresh machines, on the VM and on the
// reference evaluator, and fails unless both print want.
func evalBoth(t *testing.T, src, want string) {
	t.Helper()
	for _, engine := range []string{"compiled", "reference"} {
		m, eval := New(heap.NewDefault(), nil), (*Machine).EvalString
		if engine == "reference" {
			m, eval = NewReference(heap.NewDefault(), nil), (*Machine).RefEvalString
		}
		before := m.H.Stats.Collections
		v, err := eval(m, src)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if got := m.WriteString(v); got != want {
			t.Fatalf("%s: got\n%s\nwant\n%s", engine, got, want)
		}
		if m.H.Stats.Collections == before {
			t.Fatalf("%s: the program never collected", engine)
		}
		if errs := m.H.Verify(); len(errs) > 0 {
			t.Fatalf("%s: %v", engine, errs[0])
		}
	}
}

// TestVMViewsAcrossCollectMidFrame reads constants and a global on
// both sides of a (collect) inside one compiled frame. The collection
// moves the running code and zeroes its old segments, and the
// allocation after it reuses them, so a view kept across the call
// reads zeros or someone else's words.
func TestVMViewsAcrossCollectMidFrame(t *testing.T) {
	src := `
		(define g (list 'global "value"))
		(define (body i)
		  (let ([before (list 'k-before "s-before" g i)])
		    (collect)
		    (iota 3000)
		    (list before 'k-after "s-after" g i)))
		(define (run n acc)
		  (if (= n 0) acc (run (- n 1) (cons (body n) acc))))
		(run 3 '())`
	row := func(i int) string {
		return fmt.Sprintf(`((k-before "s-before" (global "value") %d) k-after "s-after" (global "value") %d)`, i, i)
	}
	evalBoth(t, src, "("+row(1)+" "+row(2)+" "+row(3)+")")
}

// TestVMViewsAcrossSafepointCollections allocates until the generation-0
// trigger fires at the calls' safe points, reading a constant and a
// global after every primitive call that may follow one.
func TestVMViewsAcrossSafepointCollections(t *testing.T) {
	src := `
		(define g 'global)
		(define (spin n acc)
		  (if (= n 0)
		      acc
		      (spin (- n 1)
		            (if (eq? (car (cons g 'k)) 'global)
		                (+ acc (length (list 'k1 'k2 g)))
		                'stale))))
		(spin 20000 0)`
	evalBoth(t, src, "60000")
}

// TestVMViewsDroppedOnPrivatize runs, on a clone of a template, a
// compiled procedure the template carries; a primitive it calls writes
// one of the procedure's own constants, which privatizes the code
// vector's segment. The frame's view still aliases the template's
// words, so only dropping it on the privatization (heap.Epoch) lets the
// procedure read the new constant. (The VM never writes code; the
// primitive stands in for anything that privatizes the segment under a
// running frame.)
func TestVMViewsDroppedOnPrivatize(t *testing.T) {
	privatized := false
	patch := func(m *Machine, a Args) (obj.Value, error) {
		h := m.H
		code := h.RecordRef(h.SymbolValue(m.Intern("probe")), 0)
		old, repl := m.Intern("before"), m.Intern("after")
		for i := constsSlot; i < h.VectorLength(code); i++ {
			if h.VectorRef(code, i) == old {
				cows := h.COWCopies()
				h.VectorSet(code, i, repl)
				privatized = h.COWCopies() > cows
				return obj.Void, nil
			}
		}
		return obj.Void, fmt.Errorf("probe has no constant 'before")
	}
	donor := New(heap.NewDefault(), nil)
	donor.DefinePrim("patch!", 0, 0, patch)
	if _, err := donor.EvalString(`(define (probe) (list 'before (patch!) 'before))`); err != nil {
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
	m := tpl.Attach(h, nil)
	m.DefinePrim("patch!", 0, 0, patch)
	v, err := m.EvalString("(probe)")
	if err != nil {
		t.Fatal(err)
	}
	if !privatized {
		t.Fatal("patching the clone's code privatized no segment: the code was not shared")
	}
	if got, want := m.WriteString(v), "(before #<void> after)"; got != want {
		t.Fatalf("(probe) = %s, want %s", got, want)
	}
}

// TestVMCodeAcrossSegments runs a procedure whose code vector and
// instruction vector are both large objects spanning two segments, so
// constants, globals and instructions past the first segment are read
// by the fall back (VectorRef, a second VectorWords), and checks it
// against the reference evaluator.
func TestVMCodeAcrossSegments(t *testing.T) {
	const n = 600 // distinct constants, and about as many instructions each
	var def, want strings.Builder
	def.WriteString("(define (wide) (list")
	want.WriteString("(")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&def, " 'c%d", i)
		fmt.Fprintf(&want, "c%d ", i)
	}
	def.WriteString(" (collect) g-last (wide-tail)))\n(define g-last 'last)\n")
	def.WriteString("(define (wide-tail) (if (> (length (list 1 2 3)) 2) 'tail 'wrong))\n")
	want.WriteString("#<void> last tail)")
	src := def.String() + "(list (wide) (wide))"
	expect := "(" + want.String() + " " + want.String() + ")"

	m := New(heap.NewDefault(), nil)
	if _, err := m.EvalString(def.String()); err != nil {
		t.Fatal(err)
	}
	code := m.H.RecordRef(m.H.SymbolValue(m.Intern("wide")), 0)
	iv := m.H.VectorRef(code, instrsSlot)
	for _, v := range []obj.Value{code, iv} {
		if l := m.H.VectorLength(v); l < seg.Words+8 {
			t.Fatalf("code or instruction vector of %d words fits one segment", l)
		}
	}
	evalBoth(t, src, expect)
}
