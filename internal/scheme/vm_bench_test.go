package scheme_test

import (
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/scheme"
)

// BenchmarkVMLoop runs a named-let loop on the VM, one iteration per
// op: a tail call, two comparisons and two additions. It reports the
// heap words an iteration allocates (a loop frame no closure captures
// costs none) beside Go's allocations. Public API only, so the file can
// be copied into an older checkout.
func BenchmarkVMLoop(b *testing.B) {
	m := scheme.New(heap.NewDefault(), nil)
	if _, err := m.EvalString(`
		(define (spin n)
		  (let loop ((i n) (acc 0))
		    (if (= i 0) acc (loop (- i 1) (+ acc 1)))))`); err != nil {
		b.Fatal(err)
	}
	src := fmt.Sprintf("(spin %d)", b.N)
	b.ReportAllocs()
	b.ResetTimer()
	w0 := m.H.Stats.WordsAllocated
	v, err := m.EvalString(src)
	words := m.H.Stats.WordsAllocated - w0
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if got, want := m.WriteString(v), fmt.Sprint(b.N); got != want {
		b.Fatalf("(spin %d) = %s, want %s", b.N, got, want)
	}
	b.ReportMetric(float64(words)/float64(b.N), "words/op")
}

// BenchmarkPreludeMap runs prelude procedures that call a user closure:
// (fold-left + 0 (map (lambda (x) (+ x x)) xs)) over 100 elements, one
// evaluation per op, compile included. Public API only, so the file can
// be copied into an older checkout.
func BenchmarkPreludeMap(b *testing.B) {
	m := scheme.New(heap.NewDefault(), nil)
	if _, err := m.EvalString("(define xs (iota 100))"); err != nil {
		b.Fatal(err)
	}
	const src = "(fold-left + 0 (map (lambda (x) (+ x x)) xs))"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := m.EvalString(src)
		if err != nil || v.FixnumValue() != 9900 {
			b.Fatalf("%s = %v, %v", src, v, err)
		}
	}
}
