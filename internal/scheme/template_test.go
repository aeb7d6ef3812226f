package scheme_test

import (
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/scheme"
)

// Tests for machine templates (scheme.CaptureTemplate / Clone /
// Attach): a clone must behave exactly like a freshly prelude-booted
// machine while sharing its heap copy-on-write with the template, and
// the permanent-symbol snapshot must be inherited once — never
// re-captured per clone — with DefinePrim-after-capture detectable
// through version drift.

func TestMachineTemplateCloneBoots(t *testing.T) {
	donor := scheme.New(heap.NewDefault(), nil)
	donor.MustEval(`
		(define counter
		  (let ([n 100])
		    (lambda () (set! n (+ n 1)) n)))
		(define G (make-guardian))
		(define x (cons 'kept 'pair))
		(G x)`)
	tpl, err := scheme.CaptureTemplate(donor)
	if err != nil {
		t.Fatal(err)
	}

	boot := func() *scheme.Machine {
		h, _, err := tpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		return tpl.Attach(h, nil)
	}
	c1, c2 := boot(), boot()
	if c1.H.SharedSegments() == 0 {
		t.Fatal("clone machine's heap shares nothing with the template")
	}

	// Donor state — globals, closures over captured bindings, pending
	// guardian registrations — is visible on every clone.
	expectEval(t, c1, "(counter)", "101")
	expectEval(t, c1, "(counter)", "102")
	// The sibling clone has its own copy of the closure state.
	expectEval(t, c2, "(counter)", "101")
	// And the donor is not disturbed by either.
	expectEval(t, donor, "(counter)", "101")

	// The cloned guardian works end to end: drop the registered pair,
	// collect everything, retrieve it through the guardian closure.
	expectEval(t, c1, "(begin (set! x #f) (collect 3) (G))", "(kept . pair)")
	expectEval(t, c1, "(G)", "#f")
	// c2's registration is untouched by c1's retrieval.
	expectEval(t, c2, "(begin (set! x #f) (collect 3) (G))", "(kept . pair)")

	// Clones intern independently: a symbol created on one clone is
	// invisible on the other, and symbol identity is coherent per clone.
	expectEval(t, c1, "(begin (define only-on-c1 7) only-on-c1)", "7")
	if _, err := c2.EvalString("only-on-c1"); err == nil {
		t.Fatal("definition leaked between sibling clones")
	}
	expectEval(t, c1, "(eq? 'kept (car (quote (kept))))", "#t")

	// The prelude and primitives work, and the clone heaps stay sound
	// under allocation and collection churn.
	expectEval(t, c1, "(sort < '(3 1 2))", "(1 2 3)")
	expectEval(t, c2, "(map (lambda (i) (* i i)) (iota 4))", "(0 1 4 9)")
	for _, m := range []*scheme.Machine{donor, c1, c2} {
		if errs := m.H.Verify(); len(errs) > 0 {
			t.Fatalf("heap unsound: %v", errs[0])
		}
	}
}

func TestMachineTemplateGensymAndDropUserState(t *testing.T) {
	donor := scheme.New(heap.NewDefault(), nil)
	before := donor.WriteString(donor.MustEval("(gensym)"))
	tpl, err := scheme.CaptureTemplate(donor)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := tpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c := tpl.Attach(h, nil)
	if after := c.WriteString(c.MustEval("(gensym)")); after == before {
		t.Fatalf("gensym counter reset across clone: %s repeated", after)
	}
	// DropUserState on a clone reverts to the donor's captured prelude
	// state — the permanent snapshot inherited from the template.
	c.MustEval("(define junk (make-vector 64 'j))")
	c.DropUserState()
	if _, err := c.EvalString("junk"); err == nil {
		t.Fatal("user state survived DropUserState on a clone")
	}
	expectEval(t, c, "(+ 1 2)", "3") // prelude intact
	c.H.Collect(c.H.MaxGeneration())
	if errs := c.H.Verify(); len(errs) > 0 {
		t.Fatalf("clone heap unsound after DropUserState: %v", errs[0])
	}
}

// TestMachineTemplatePermSnapshotShared is the scheme-layer half of
// the snapshot bugfix: clones inherit the donor's permanent-symbol
// snapshot (one immutable copy semantics, no per-clone re-capture),
// host primitives replay through the allocation-free DefinePrim fast
// path, and a DefinePrim on the donor after capture is visible as
// version drift rather than silently diverging clones.
func TestMachineTemplatePermSnapshotShared(t *testing.T) {
	donor := scheme.New(heap.NewDefault(), nil)
	hits := 0
	donor.DefinePrim("host-probe", 0, 0, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		hits++
		return obj.FromFixnum(int64(hits)), nil
	})
	expectEval(t, donor, "(host-probe)", "1")
	tpl, err := scheme.CaptureTemplate(donor)
	if err != nil {
		t.Fatal(err)
	}
	if tpl.PermVersion() != donor.PermVersion() {
		t.Fatalf("template version %d, donor %d at capture", tpl.PermVersion(), donor.PermVersion())
	}

	h, _, err := tpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c := tpl.Attach(h, nil)
	// Replaying the host primitive in donor order must take the fast
	// path: zero heap allocation, and no version bump (nothing about the
	// permanent state changed).
	liveBefore := c.H.LiveWords()
	c.DefinePrim("host-probe", 0, 0, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		hits += 10
		return obj.FromFixnum(int64(hits)), nil
	})
	if c.H.LiveWords() != liveBefore {
		t.Fatalf("DefinePrim replay allocated %d words on the clone heap",
			c.H.LiveWords()-liveBefore)
	}
	if c.PermVersion() != tpl.PermVersion() {
		t.Fatal("DefinePrim replay bumped the clone's PermVersion")
	}
	expectEval(t, c, "(host-probe)", "11") // dispatches to the clone's fn

	// The clone's snapshot is the donor's: DropUserState reverts the
	// host primitive's binding too.
	c.MustEval("(set! host-probe 42)")
	c.DropUserState()
	expectEval(t, c, "(host-probe)", "21")

	// Donor-side DefinePrim after capture: the template must read as
	// stale so holders re-capture instead of booting divergent clones.
	donor.DefinePrim("host-late", 0, 0, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		return obj.True, nil
	})
	if donor.PermVersion() == tpl.PermVersion() {
		t.Fatal("DefinePrim after capture did not change the donor's PermVersion")
	}
	// And the stale template's clones genuinely lack the new primitive.
	if _, err := c.EvalString("(host-late)"); err == nil {
		t.Fatal("clone of the stale template has the post-capture primitive")
	}
}

// compiledDefs defines compiled procedures of every shape the compiler
// emits: a closure over a counter, a case-lambda, a rest-argument
// procedure returning a nested lambda, and quoted data.
const compiledDefs = `
	(define counter
	  (let ([n 100])
	    (lambda () (set! n (+ n 1)) n)))
	(define arity
	  (case-lambda [() 'none] [(a) (list 'one a)] [(a . r) (cons a r)]))
	(define (adder . ks)
	  (let ([k (apply + ks)]) (lambda (x) (+ x k))))
	(define (table) '(#(1 2) "three"))`

// TestMachineTemplateCarriesCompiledCode: compiled code is heap data,
// so a template captured from a machine holding compiled definitions
// carries them, and each clone calls them, collects, and calls them
// again with its own copy of their state.
func TestMachineTemplateCarriesCompiledCode(t *testing.T) {
	donor := scheme.New(heap.NewDefault(), nil)
	if _, err := donor.EvalString(compiledDefs); err != nil {
		t.Fatal(err)
	}
	tpl, err := scheme.CaptureTemplate(donor)
	if err != nil {
		t.Fatalf("CaptureTemplate of a machine with compiled code: %v", err)
	}
	clones := make([]*scheme.Machine, 2)
	for i := range clones {
		h, _, err := tpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		clones[i] = tpl.Attach(h, nil)
	}
	for _, c := range clones {
		for round := 0; round < 2; round++ {
			for _, q := range []struct{ src, want string }{
				{"(counter)", fmt.Sprint(101 + round)},
				{"(arity)", "none"},
				{"(arity 1)", "(one 1)"},
				{"(arity 1 2 3)", "(1 2 3)"},
				{"((adder 1 2 3) 10)", "16"},
				{"(table)", `(#(1 2) "three")`},
				{"counter", "#<procedure counter>"},
			} {
				v, err := c.EvalString(q.src)
				if err != nil {
					t.Fatalf("%s: %v", q.src, err)
				}
				if got := c.WriteString(v); got != q.want {
					t.Fatalf("round %d: %s = %s, want %s", round, q.src, got, q.want)
				}
			}
			c.H.Collect(c.H.MaxGeneration())
			if errs := c.H.Verify(); len(errs) > 0 {
				t.Fatalf("clone heap after collection: %v", errs[0])
			}
		}
	}
	// The clone and the donor keep separate counter state.
	expectEval(t, clones[0], "(counter)", "103")
	expectEval(t, donor, "(counter)", "101")
}

func TestMachineTemplateRefusesBusyMachines(t *testing.T) {
	m2 := scheme.New(heap.NewDefault(), nil)
	captured := false
	m2.DefinePrim("capture-now", 0, 0, func(mm *scheme.Machine, a scheme.Args) (obj.Value, error) {
		_, err := scheme.CaptureTemplate(mm)
		captured = err == nil
		return obj.False, nil
	})
	m2.MustEval("(capture-now)")
	if captured {
		t.Fatal("CaptureTemplate succeeded mid-evaluation; want quiescence error")
	}
}
