package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obj"
)

// runTraceWorkload drives a representative workload — a tenured list,
// guardians with both held and salvaged registrations, weak pairs,
// old-generation mutations, and generation-0 churn — for exactly the
// requested number of collections under the radix policy. When
// emitJSON is set, every collection's TraceEvent is written to out as
// one JSON line (JSON Lines, oldest first). The heap is returned so
// the caller can render phase summaries from its Stats.
func runTraceWorkload(out io.Writer, collections int, emitJSON bool) (*heap.Heap, error) {
	h := heap.MustNew(heap.DefaultConfig())
	var emitErr error
	if emitJSON {
		enc := json.NewEncoder(out)
		h.SetTraceFunc(func(ev heap.TraceEvent) {
			if err := enc.Encode(ev); err != nil && emitErr == nil {
				emitErr = err
			}
		})
	}
	g := core.NewGuardian(h)
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 20000; i++ {
		p := h.Cons(obj.FromFixnum(int64(i)), obj.Nil)
		lst.Set(h.Cons(p, lst.Get()))
		if i%8 == 0 {
			lst.Set(h.Cons(h.WeakCons(p, obj.Nil), lst.Get()))
		}
		if i%16 == 0 {
			g.Register(p) // held: the list keeps p reachable
		}
	}
	for i := 0; i < collections; i++ {
		for j := 0; j < 2000; j++ {
			h.Cons(obj.FromFixnum(int64(j)), obj.Nil) // churn
		}
		g.Register(h.Cons(obj.FromFixnum(int64(i)), obj.Nil)) // dropped: salvaged
		h.SetCar(lst.Get(), h.Cons(obj.FromFixnum(-1), obj.Nil))
		h.CollectAuto()
		for {
			if _, ok := g.Get(); !ok {
				break
			}
		}
	}
	return h, emitErr
}

// printPhaseSummary renders the accumulated per-phase pause
// attribution (cumulative Stats totals plus the last collection's
// CollectionReport) as an aligned table.
func printPhaseSummary(w io.Writer, h *heap.Heap) {
	st := &h.Stats
	rep := h.LastReport()
	var phaseTotal int64
	for _, d := range st.PhaseTotals {
		phaseTotal += d.Nanoseconds()
	}
	lastPause := time.Duration(0)
	var lastPhases [heap.NumPhases]time.Duration
	if rep != nil {
		lastPause = rep.Pause
		lastPhases = rep.Phases
	}
	fmt.Fprintf(w, "collections: %d, total pause %v (last %v)\n",
		st.Collections, st.TotalPause, lastPause)
	fmt.Fprintf(w, "%-10s  %14s  %14s  %7s\n", "phase", "total", "last", "share")
	for i := heap.Phase(0); i < heap.NumPhases; i++ {
		share := 0.0
		if phaseTotal > 0 {
			share = 100 * float64(st.PhaseTotals[i].Nanoseconds()) / float64(phaseTotal)
		}
		fmt.Fprintf(w, "%-10s  %14v  %14v  %6.1f%%\n",
			i, st.PhaseTotals[i], lastPhases[i], share)
	}
	if rep != nil && rep.GuardianRounds > 0 {
		fmt.Fprintf(w, "guardian rounds (last): %d\n", rep.GuardianRounds)
	}
}
