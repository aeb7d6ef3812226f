// Scheme-session: runs the paper's §3 transcripts and Figure 1 through
// the embedded Scheme machine, printing each form and its result —
// the published sessions, reproduced end to end on the simulated heap.
//
//	go run ./examples/scheme-session
package main

import (
	"fmt"
	"os"

	"repro/internal/heap"
	"repro/internal/scheme"
)

var session = []string{
	";; --- the paper's first transcript ---",
	"(define G (make-guardian))",
	"(define x (cons 'a 'b))",
	"(G x)",
	"(G)",
	"(set! x #f)",
	"(collect 1)",
	"(G)",
	"(G)",
	";; --- registering a guardian with another guardian ---",
	"(define H (make-guardian))",
	"(define y (cons 'c 'd))",
	"(G H)",
	"(H y)",
	"(set! y #f)",
	"(set! H #f)",
	"(collect 1)",
	"((G))",
	";; --- figure 1: a guarded hash table ---",
	"(define (phash k size) (modulo (car k) size))",
	"(define tbl (make-guarded-hash-table phash 13))",
	"(define k1 (cons 1 'one))",
	"(tbl k1 'value-1)",
	"(tbl k1 'ignored)",
	";; --- transport guardian ---",
	"(define tg (make-transport-guardian))",
	"(define z (cons 'tracked '()))",
	"(tg z)",
	"(collect 0)",
	"(eq? (tg) z)",
	"(tg)",
}

func main() {
	h := heap.NewDefault()
	m := scheme.New(h, nil)
	m.Out = os.Stdout

	for _, form := range session {
		if len(form) > 1 && form[0] == ';' {
			fmt.Println(form)
			continue
		}
		fmt.Printf("> %s\n", form)
		v, err := m.EvalString(form)
		if err != nil {
			fmt.Println(err)
			continue
		}
		if s := m.WriteString(v); s != "#<void>" {
			fmt.Println(s)
		}
	}
	fmt.Printf("\n;; collector ran %d collections during this session\n", h.Stats.Collections)
}
