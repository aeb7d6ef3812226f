package scheme_test

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/scheme"
)

// TestGCPolicyPrim pins the (gc-policy) introspection contract: a pair
// of the policy's name symbol and the live gen-0 trigger. The default
// heap runs the stock static policy (a RadixPolicy); an AdaptivePolicy
// heap reports adaptive, and its trigger is the live, retunable value —
// not the configured constant.
func TestGCPolicyPrim(t *testing.T) {
	m := newMachine(t)
	expectEval(t, m, "(car (gc-policy))", "radix")
	expectEval(t, m, "(positive? (cdr (gc-policy)))", "#t")
	expectEval(t, m, `
		(begin
		  (collect)
		  (positive? (cdr (gc-policy))))`, "#t")

	cfg := heap.DefaultConfig()
	cfg.Policy = &heap.AdaptivePolicy{}
	ma := scheme.New(heap.MustNew(cfg), nil)
	expectEval(t, ma, "(car (gc-policy))", "adaptive")
	expectEval(t, ma, "(positive? (cdr (gc-policy)))", "#t")
	// Drive enough young garbage through collections that the adaptive
	// policy moves the trigger off its starting value (all-garbage
	// nursery -> survival ~0 -> the trigger halves).
	expectEval(t, ma, `
		(let ([start (cdr (gc-policy))])
		  (define (churn n) (if (zero? n) 'done (begin (cons n n) (churn (- n 1)))))
		  (define (spin n) (if (zero? n) 'done (begin (churn 2000) (collect 0) (spin (- n 1)))))
		  (spin 8)
		  (not (= (cdr (gc-policy)) start)))`, "#t")

	explicit := heap.DefaultConfig()
	explicit.Policy = heap.RadixPolicy{}
	mr := scheme.New(heap.MustNew(explicit), nil)
	expectEval(t, mr, "(car (gc-policy))", "radix")
}

func TestGCPhaseStats(t *testing.T) {
	m := newMachine(t)
	m.MustEval("(collect)")
	// One entry per phase, each (phase-symbol last-ns total-ns).
	expectEval(t, m, "(length (gc-phase-stats))", "9")
	expectEval(t, m, "(map car (gc-phase-stats))",
		"(setup roots dirty-scan old-scan sweep guardian weak hooks free)")
	expectEval(t, m, `
		(begin
		  (define (all-fixnums? ls)
		    (or (null? ls)
		        (and (integer? (cadr (car ls)))
		             (integer? (caddr (car ls)))
		             (all-fixnums? (cdr ls)))))
		  (all-fixnums? (gc-phase-stats)))`, "#t")
	// After a collection the phase nanos must sum to something positive.
	expectEval(t, m, `
		(begin
		  (collect)
		  (positive? (apply + (map cadr (gc-phase-stats)))))`, "#t")
	// Totals only grow.
	expectEval(t, m, `
		(let ([before (apply + (map caddr (gc-phase-stats)))])
		  (collect)
		  (> (apply + (map caddr (gc-phase-stats))) before))`, "#t")
}

func TestGCTracePrim(t *testing.T) {
	m := newMachine(t)
	// Disabled by default: no buffered events.
	expectEval(t, m, "(begin (collect) (gc-trace))", "()")
	// Enable a 4-deep ring, run 6 collections, read back the last 4.
	m.MustEval("(gc-trace 4)")
	m.MustEval(`
		(define (church n) (if (zero? n) 'done (begin (cons n n) (church (- n 1)))))
		(define (spin n) (if (zero? n) 'done (begin (church 100) (collect) (spin (- n 1)))))
		(spin 6)`)
	expectEval(t, m, "(length (gc-trace))", "4")
	// Events are oldest first with consecutive sequence numbers, and
	// every record carries the association-list fields.
	expectEval(t, m, `
		(let ([evs (gc-trace)])
		  (and (= (- (cdr (assq 'seq (cadr evs))) (cdr (assq 'seq (car evs)))) 1)
		       (number? (cdr (assq 'pause-ns (car evs))))
		       (number? (cdr (assq 'gen (car evs))))
		       (number? (cdr (assq 'target (car evs))))
		       (number? (cdr (assq 'words-copied (car evs))))
		       (number? (cdr (assq 'sweep-passes (car evs))))
		       (number? (cdr (assq 'guardian-salvaged (car evs))))
		       (number? (cdr (assq 'guardian-held (car evs))))
		       (number? (cdr (assq 'guardian-dropped (car evs))))
		       (number? (cdr (assq 'weak-broken (car evs))))
		       (number? (cdr (assq 'sweep-ns (car evs))))))`, "#t")
	// Per-phase nanos of an event sum to no more than its pause.
	expectEval(t, m, `
		(let* ([ev (car (gc-trace))]
		       [phases (map (lambda (p) (cdr (assq p ev)))
		                    '(setup-ns roots-ns dirty-scan-ns old-scan-ns sweep-ns
		                      guardian-ns weak-ns hooks-ns free-ns))])
		  (<= (apply + phases) (cdr (assq 'pause-ns ev))))`, "#t")
	// (gc-trace 0) disables and clears.
	m.MustEval("(gc-trace 0)")
	expectEval(t, m, "(begin (collect) (gc-trace))", "()")
	// Bad capacity is an error.
	if _, err := m.EvalString("(gc-trace -1)"); err == nil {
		t.Fatal("(gc-trace -1) should error")
	}
	if _, err := m.EvalString("(gc-trace 'big)"); err == nil {
		t.Fatal("(gc-trace 'big) should error")
	}
}
