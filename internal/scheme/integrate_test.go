package scheme

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// integratedNames are the built-ins the VM computes in place
// (integrated).
var integratedNames = []string{"cons", "car", "cdr", "null?", "pair?", "not", "eq?", "+", "-", "<", "="}

// integrateOperands spans what the integrated cases must take or hand
// on to the table: zero, ±1, the fixnum limits (+ and - wrap there),
// 2^53±1 (where float64 stops being exact), flonums, a char, '(), a
// pair, a string, #f and a symbol.
var integrateOperands = []string{
	"0", "1", "-1", "1152921504606846975", "-1152921504606846976",
	"9007199254740991", "9007199254740993", "1.5", "-2.0",
	`#\a`, "'()", "(cons 1 2)", `"str"`, "#f", "'sym",
}

// outcome renders a call's value or error for comparison.
func outcome(m *Machine, v obj.Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return m.WriteString(v)
}

// TestIntegratedPrimitivesMatchTable: every integrated built-in gives
// the value or the error its table entry gives, for every operand
// combination up to arity two and a sample at arity three — once
// directly (integrated against callPrimIndex on the same stack
// operands) and once end to end (a compiled call against the same call
// through apply, which dispatches through the table).
func TestIntegratedPrimitivesMatchTable(t *testing.T) {
	m := New(heap.NewDefault(), nil)
	if _, err := m.EvalString("(define ops (vector " + strings.Join(integrateOperands, " ") + "))"); err != nil {
		t.Fatal(err)
	}
	var combos [][]int
	combos = append(combos, nil)
	for i := range integrateOperands {
		combos = append(combos, []int{i})
		for j := range integrateOperands {
			combos = append(combos, []int{i, j})
		}
	}
	for _, i := range []int{0, 1, 3, 7, 11} {
		combos = append(combos, []int{i, 1, i})
	}

	for _, name := range integratedNames {
		prim := m.H.SymbolValue(m.Intern(name))
		if !prim.IsPrim() {
			t.Fatalf("%s is bound to %v, not a primitive", name, prim)
		}
		idx, inlined := prim.PrimIndex(), 0
		for _, c := range combos {
			// Directly, on the same operands. ops is re-read: the
			// compiled calls below may collect.
			ops := m.H.SymbolValue(m.Intern("ops"))
			base := len(m.stack)
			for _, k := range c {
				m.stack = append(m.stack, m.H.VectorRef(ops, k))
			}
			iv, ok := m.integrated(idx, base, len(c))
			is := m.WriteString(iv)
			tv, terr := m.callPrimIndex(idx, Args{m: m, base: base, n: len(c)})
			ts := outcome(m, tv, terr)
			m.stack = m.stack[:base]
			if ok {
				inlined++
				if is != ts {
					t.Errorf("(%s %v): integrated %s, table %s", name, c, is, ts)
				}
			}

			// End to end: compiled call against apply.
			args := make([]string, len(c))
			for i, k := range c {
				args[i] = integrateOperands[k]
			}
			call := fmt.Sprintf("(%s %s)", name, strings.Join(args, " "))
			viaApply := fmt.Sprintf("(apply %s (list %s))", name, strings.Join(args, " "))
			cv, cerr := m.EvalString(call)
			cs := outcome(m, cv, cerr)
			av, aerr := m.EvalString(viaApply)
			as := outcome(m, av, aerr)
			if cs != as {
				t.Errorf("%s = %s, but %s = %s", call, cs, viaApply, as)
			}
		}
		if inlined == 0 {
			t.Errorf("%s was never integrated", name)
		}
	}
	if errs := m.H.Verify(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}

// TestIntegratedFixnumWrap: + and - wrap at the fixnum limits in place
// exactly as their table entries do.
func TestIntegratedFixnumWrap(t *testing.T) {
	m := New(heap.NewDefault(), nil)
	for src, want := range map[string]string{
		"(+ 1152921504606846975 1)":   "-1152921504606846976",
		"(- -1152921504606846976 1)":  "1152921504606846975",
		"(+ -1152921504606846976 -1)": "1152921504606846975",
	} {
		v, err := m.EvalString(src)
		if err != nil || m.WriteString(v) != want {
			t.Errorf("%s = %s, %v; want %s", src, m.WriteString(v), err, want)
		}
	}
}
