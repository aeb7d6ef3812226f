// Gcbench: a classic garbage-collection workload (binary trees in the
// style of Boehm's GCBench) run on the embedded Scheme machine
// (bytecode compiler + VM), with a guardian watching the long-lived
// trees. It exercises the whole reproduction at once: the generational
// collector under sustained allocation, automatic radix-policy
// collections, promotion, and guardian recovery of dropped trees —
// then prints the collector's own accounting.
//
//	go run ./examples/gcbench
package main

import (
	"fmt"
	"time"

	"repro/internal/heap"
	"repro/internal/scheme"
)

const program = `
(define (make-tree d)
  (if (zero? d)
      (cons '() '())
      (cons (make-tree (- d 1)) (make-tree (- d 1)))))

(define (tree-count t)
  (if (null? t) 0 (+ 1 (tree-count (car t)) (tree-count (cdr t)))))

(define G (make-guardian))
(define recovered 0)

;; Short-lived trees: build, verify, drop.
(define (churn depth n)
  (let loop ([i 0])
    (when (< i n)
      (let ([t (make-tree depth)])
        (G t)
        (unless (= (tree-count t) (- (* 2 (expt2 depth)) 1))
          (error "tree corrupted")))
      (loop (+ i 1)))))

(define (expt2 n) (if (zero? n) 1 (* 2 (expt2 (- n 1)))))

;; A long-lived tree survives the whole run.
(define long-lived (make-tree 10))

(churn 4 300)
(churn 6 100)
(churn 8 30)

;; Recover everything the collector proved dead.
(collect 3)
(let drain ([x (G)])
  (when x
    (set! recovered (+ recovered 1))
    (drain (G))))

(list (tree-count long-lived) recovered)
`

func main() {
	cfg := heap.DefaultConfig()
	cfg.Policy = heap.RadixPolicy{Trigger: 32 * 1024}
	h := heap.MustNew(cfg)
	m := scheme.New(h, nil)

	fmt.Println("GCBench-style binary-tree workload on the simulated heap")
	start := time.Now()
	v, err := m.EvalString(program)
	if err != nil {
		panic(err)
	}
	elapsed := time.Since(start)

	longLived := h.Car(v).FixnumValue()
	recovered := h.Car(h.Cdr(v)).FixnumValue()
	fmt.Printf("long-lived tree nodes: %d (expected %d)\n", longLived, 1<<11-1)
	fmt.Printf("dropped trees recovered via guardian: %d of 430\n", recovered)
	fmt.Printf("wall time: %v\n\n", elapsed.Round(time.Millisecond))
	fmt.Println(h.Stats.String())
	if errs := h.Verify(); len(errs) != 0 {
		panic(fmt.Sprintf("heap unsound after workload: %v", errs[0]))
	}
	fmt.Println("\nheap verified sound after the workload")
}
