package scheme

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/seg"
)

// Tests for the two-level symbol table (symtab.go): machines attached
// to one template share its base and never write it, each keeps what
// it interns to itself, and a machine whose collection moves a base
// value takes a private copy first.

// staticTopConfig is the server's session heap shape: three dynamic
// generations under a static one that holds the template.
func staticTopConfig() heap.Config {
	return heap.Config{
		Generations: 4,
		Policy:      heap.StaticTop(heap.RadixPolicy{Trigger: 8 * seg.Words}),
		UseDirtySet: true,
	}
}

func captureFrom(t testing.TB, cfg heap.Config) *MachineTemplate {
	t.Helper()
	donor := New(heap.MustNew(cfg), nil)
	donor.EnableSymbolPruning(true)
	donor.MustEval("(define (build k n) (let loop ((i (- n 1)) (acc '())) (if (< i 0) acc (loop (- i 1) (cons (+ k i) acc)))))")
	tpl, err := CaptureTemplate(donor)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func attachClone(t testing.TB, tpl *MachineTemplate) *Machine {
	t.Helper()
	h, _, err := tpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return tpl.Attach(h, nil)
}

func evalTo(t testing.TB, m *Machine, src string) string {
	t.Helper()
	v, err := m.EvalString(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return m.WriteString(v)
}

// baseCopy is a deep copy of a base's values, to check it is unchanged.
type baseCopy struct{ syms, values, plists []obj.Value }

func copyBase(b *symBase) baseCopy {
	return baseCopy{
		syms:   append([]obj.Value(nil), b.syms...),
		values: append([]obj.Value(nil), b.values...),
		plists: append([]obj.Value(nil), b.plists...),
	}
}

func (c baseCopy) check(t *testing.T, b *symBase) {
	t.Helper()
	for _, p := range []struct {
		what     string
		was, now []obj.Value
	}{{"syms", c.syms, b.syms}, {"values", c.values, b.values}, {"plists", c.plists, b.plists}} {
		if len(p.was) != len(p.now) {
			t.Fatalf("base %s length %d, was %d", p.what, len(p.now), len(p.was))
		}
		for i := range p.was {
			if p.was[i] != p.now[i] {
				t.Fatalf("base %s[%d] written: %#x, was %#x", p.what, i, p.now[i], p.was[i])
			}
		}
	}
}

func aliasesBase(m *Machine, b *symBase) bool {
	return m.shared && m.base == b && &m.baseSyms[0] == &b.syms[0] &&
		&m.permValues[0] == &b.values[0] && &m.permPlists[0] == &b.plists[0]
}

func TestAttachSharesSymbolTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  heap.Config
		// staticBase: the template sits in a generation no automatic
		// collection reaches, so only (collect 3) flattens.
		staticBase bool
	}{
		{"static-top", staticTopConfig(), true},
		{"default", heap.DefaultConfig(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tpl := captureFrom(t, tc.cfg)
			was := copyBase(tpl.base)
			c1, c2 := attachClone(t, tpl), attachClone(t, tpl)
			if len(tpl.base.syms) == 0 {
				t.Fatal("template has an empty base")
			}
			for _, m := range []*Machine{c1, c2} {
				if !aliasesBase(m, tpl.base) {
					t.Fatal("attached machine does not alias the template's base")
				}
			}

			// Interning stays per machine.
			evalTo(t, c1, "(define only-on-c1 7)")
			if _, ok := c2.symbolIndex("only-on-c1"); ok {
				t.Fatal("symbol interned on c1 is visible on c2")
			}
			if got, want := c1.InternedSymbols(), c2.InternedSymbols()+1; got != want {
				t.Fatalf("c1 interns %d symbols, want %d", got, want)
			}
			if _, err := c2.EvalString("only-on-c1"); err == nil {
				t.Fatal("definition leaked between sibling clones")
			}

			// Young collections move nothing in the base.
			for i := 0; i < 3; i++ {
				for _, m := range []*Machine{c1, c2} {
					evalTo(t, m, fmt.Sprintf("(length (build %d 300))", i))
					m.H.Collect(0)
				}
			}
			if !c1.shared || !c2.shared {
				t.Fatal("a young collection flattened a machine")
			}

			// A collection of every generation moves the base values:
			// c1 alone flattens.
			evalTo(t, c1, "(collect 3)")
			if c1.shared || c1.base != tpl.base {
				t.Fatal("(collect 3) did not flatten c1 (or dropped its base names)")
			}
			if !aliasesBase(c2, tpl.base) {
				t.Fatal("c1's collection flattened c2")
			}
			if tc.staticBase {
				// Automatic collections never reach the static
				// generation: c2 keeps sharing.
				for i := 0; i < 40; i++ {
					evalTo(t, c2, fmt.Sprintf("(length (build %d 400))", i))
				}
				if c2.H.Stats.Collections == 0 || !c2.shared {
					t.Fatalf("c2 after %d collections: shared=%v", c2.H.Stats.Collections, c2.shared)
				}
			} else {
				// Without a static generation the template is in the
				// oldest one, and its first collection flattens.
				evalTo(t, c2, "(collect 3)")
				if c2.shared {
					t.Fatal("an oldest-generation collection did not flatten c2")
				}
			}

			for _, m := range []*Machine{c1, c2} {
				if got := evalTo(t, m, "(sort < '(3 1 2))"); got != "(1 2 3)" {
					t.Fatalf("sort = %s", got)
				}
				if got := evalTo(t, m, "(apply + (build 0 10))"); got != "45" {
					t.Fatalf("build = %s", got)
				}
				m.H.Collect(m.H.MaxGeneration())
				if errs := m.H.Verify(); len(errs) > 0 {
					t.Fatalf("Verify: %v", errs[0])
				}
			}
			if got := evalTo(t, c1, "only-on-c1"); got != "7" {
				t.Fatalf("only-on-c1 = %s after flattening", got)
			}
			was.check(t, tpl.base)

			// A clone attached after all this still boots from the
			// untouched base.
			c3 := attachClone(t, tpl)
			if got := evalTo(t, c3, "(apply + (build 1 3))"); got != "6" {
				t.Fatalf("late clone: %s", got)
			}
		})
	}
}

// TestAttachedMachinesRunConcurrently runs sibling clones on two
// goroutines through automatic collections; one of them also collects
// every generation, flattening midway. Run under -race: a root visitor
// that stored into the shared base — even the value already there —
// races with the sibling's reads.
func TestAttachedMachinesRunConcurrently(t *testing.T) {
	tpl := captureFrom(t, staticTopConfig())
	was := copyBase(tpl.base)
	ms := []*Machine{attachClone(t, tpl), attachClone(t, tpl)}
	var wg sync.WaitGroup
	errs := make([]error, len(ms))
	for g, m := range ms {
		wg.Add(1)
		go func(g int, m *Machine) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				src := fmt.Sprintf("(apply + (build %d 125))", i)
				if g == 0 && i == 30 {
					src = "(begin (collect 3) " + src + ")"
				}
				// Every request compiles, so the two machines also share
				// the compile scratch pool.
				v, err := m.EvalString(src)
				if err != nil {
					errs[g] = err
					return
				}
				if want := int64(125*i + 125*124/2); v.FixnumValue() != want {
					errs[g] = fmt.Errorf("request %d = %d, want %d", i, v.FixnumValue(), want)
					return
				}
			}
		}(g, m)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("machine %d: %v", g, err)
		}
	}
	for g, m := range ms {
		if m.H.Stats.Collections < 5 {
			t.Fatalf("machine %d ran only %d collections", g, m.H.Stats.Collections)
		}
		if errs := m.H.Verify(); len(errs) > 0 {
			t.Fatalf("machine %d: Verify: %v", g, errs[0])
		}
	}
	if ms[0].shared || !ms[1].shared {
		t.Fatalf("shared = %v, %v; want only the machine that ran (collect 3) flattened", ms[0].shared, ms[1].shared)
	}
	was.check(t, tpl.base)
}

// TestAttachDefinePrimStaysPrivate: a DefinePrim that takes the slow
// path on one clone — a new primitive, or a new binding for a permanent
// symbol — flattens that clone and is invisible to its sibling.
func TestAttachDefinePrimStaysPrivate(t *testing.T) {
	tpl := captureFrom(t, staticTopConfig())
	was := copyBase(tpl.base)
	c1, c2 := attachClone(t, tpl), attachClone(t, tpl)
	c1.DefinePrim("c1-probe", 0, 0, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromFixnum(1), nil
	})
	c1.DefinePrim("car", 1, 1, func(m *Machine, a Args) (obj.Value, error) {
		return obj.FromFixnum(99), nil
	})
	if c1.shared {
		t.Fatal("a DefinePrim that changed permanent state did not flatten")
	}
	if got := evalTo(t, c1, "(list (c1-probe) (car '(1 2)))"); got != "(1 99)" {
		t.Fatalf("c1: %s", got)
	}
	// DropUserState keeps the new binding of the permanent car. The
	// donor interned symbols after its prelude, so c1-probe's symbol
	// landed past the permanent watermark and goes with the user state.
	c1.DropUserState()
	if got := evalTo(t, c1, "(car '(1 2))"); got != "99" {
		t.Fatalf("c1 car after DropUserState: %s", got)
	}
	if _, err := c1.EvalString("(c1-probe)"); err == nil {
		t.Fatal("a non-permanent host primitive survived DropUserState")
	}
	if _, err := c2.EvalString("(c1-probe)"); err == nil {
		t.Fatal("c1's primitive is visible on c2")
	}
	if got := evalTo(t, c2, "(car '(1 2))"); got != "1" {
		t.Fatalf("c2 car = %s", got)
	}
	c2.MustEval("(define car 5)")
	c2.DropUserState()
	if got := evalTo(t, c2, "(car '(1 2))"); got != "1" {
		t.Fatalf("c2 car after DropUserState = %s", got)
	}
	if !aliasesBase(c2, tpl.base) {
		t.Fatal("c2 stopped sharing")
	}
	was.check(t, tpl.base)
}

// TestAttachSaveImageRoundTrip: an attached machine's image holds base
// and overlay, and reloads into a machine with the same permanent
// state.
func TestAttachSaveImageRoundTrip(t *testing.T) {
	tpl := captureFrom(t, staticTopConfig())
	c := attachClone(t, tpl)
	c.MustEval("(define kept (build 10 3)) (define car-backup car)")
	var buf bytes.Buffer
	if err := c.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMachineImage(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.InternedSymbols(), c.InternedSymbols(); got != want {
		t.Fatalf("loaded machine interns %d symbols, want %d", got, want)
	}
	if got, want := m.PermanentSymbols(), c.PermanentSymbols(); got != want {
		t.Fatalf("loaded machine has %d permanent symbols, want %d", got, want)
	}
	if got := evalTo(t, m, "(list kept (car-backup kept) (apply + (build 0 4)))"); got != "((10 11 12) 10 6)" {
		t.Fatalf("loaded: %s", got)
	}
	m.DropUserState()
	if _, err := m.EvalString("kept"); err == nil {
		t.Fatal("user global survived DropUserState on the loaded machine")
	}
	if got := evalTo(t, m, "(apply + (iota 4))"); got != "6" {
		t.Fatalf("prelude after DropUserState: %s", got)
	}
	m.H.Collect(m.H.MaxGeneration())
	if errs := m.H.Verify(); len(errs) > 0 {
		t.Fatalf("Verify: %v", errs[0])
	}
}

// TestAttachInternedSymbolsCountsBoth: InternedSymbols is the base plus
// the overlay, so a clone reads as its donor did.
func TestAttachInternedSymbolsCountsBoth(t *testing.T) {
	donor := New(heap.MustNew(staticTopConfig()), nil)
	donor.MustEval("(define tail-symbol 1)") // past the permanent prefix
	tpl, err := CaptureTemplate(donor)
	if err != nil {
		t.Fatal(err)
	}
	c := attachClone(t, tpl)
	if got, want := c.InternedSymbols(), donor.InternedSymbols(); got != want {
		t.Fatalf("clone interns %d symbols, donor %d", got, want)
	}
	if got := evalTo(t, c, "tail-symbol"); got != "1" {
		t.Fatalf("tail-symbol = %s", got)
	}
	n := c.InternedSymbols()
	c.Intern("brand-new")
	if c.InternedSymbols() != n+1 {
		t.Fatalf("interning one symbol moved the count %d -> %d", n, c.InternedSymbols())
	}
}

// TestAttachAllocs pins what Attach allocates: the machine, the
// overlay of the donor's few non-permanent symbols, its port manager
// and its heap registrations — nothing per base symbol or built-in.
func TestAttachAllocs(t *testing.T) {
	tpl := captureFrom(t, heap.DefaultConfig())
	const runs = 20
	heaps := make([]*heap.Heap, runs+1)
	for i := range heaps {
		h, _, err := tpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		heaps[i] = h
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tpl.Attach(heaps[i], nil)
		i++
	})
	t.Logf("Attach: %.0f allocations", allocs)
	if allocs > 25 {
		t.Fatalf("Attach made %.0f allocations, want at most 25", allocs)
	}
}
