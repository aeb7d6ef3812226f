package experiments

import (
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
)

// A1 ablates the remembered (dirty) set: the alternative collector
// configuration scans every word of every older generation at each
// young collection. With a large tenured heap, generation-0 pauses
// grow with old-heap size; with the dirty set they track only the
// mutated cells.
func A1() Table {
	t := Table{
		ID:         "A1",
		Title:      "dirty set vs scanning all older generations",
		PaperClaim: "overhead proportional to the work already done by the collector (abstract)",
		Header:     []string{"old heap (pairs)", "config", "gen0 pause", "old-scan phase ns/gc", "old cells visited/gc"},
	}
	for _, N := range []int{10000, 100000} {
		for _, useDirty := range []bool{true, false} {
			cfg := heap.DefaultConfig()
			cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30} // manual collections only
			cfg.UseDirtySet = useDirty
			h := heap.MustNew(cfg)
			// Build a tenured list of N pairs.
			lst := h.NewRoot(obj.Nil)
			for i := 0; i < N; i++ {
				lst.Set(h.Cons(fx(int64(i)), lst.Get()))
			}
			h.Collect(h.MaxGeneration())
			h.Collect(h.MaxGeneration())
			// A handful of old-generation mutations.
			h.SetCar(lst.Get(), h.Cons(fx(-1), obj.Nil))
			const rounds = 10
			h.Stats.Reset()
			start := time.Now()
			for i := 0; i < rounds; i++ {
				churn(h, 2000)
				h.Collect(0)
			}
			elapsed := time.Since(start)
			// Each configuration accrues its old-to-young scan time in
			// its own phase column: the remembered set in dirty-scan,
			// the conservative full scan in old-scan.
			name, phase := "scan-all-old", heap.PhaseOldScan
			if useDirty {
				name, phase = "dirty-set", heap.PhaseDirtyScan
			}
			t.Rows = append(t.Rows, []string{
				ni(N), name,
				ns(float64(elapsed.Nanoseconds()) / rounds),
				ns(float64(h.Stats.PhaseTotals[phase].Nanoseconds()) / rounds),
				n(h.Stats.DirtyCellsScanned / rounds),
			})
		}
	}
	t.Notes = "scan-all-old visits the whole tenured heap each young collection; the dirty set visits only the segments of mutated cells, while they point young"
	return t
}

// A2 ablates the weak-pair second pass: restricted to weak pairs
// copied during the current collection (the paper's design) vs
// visiting every weak segment in the heap.
func A2() Table {
	t := Table{
		ID:         "A2",
		Title:      "weak pass on fresh pairs vs all weak segments",
		PaperClaim: "a second pass through the weak-pair space is made after collection (§4)",
		Header:     []string{"tenured weak pairs", "config", "gen0 pause", "weak phase ns/gc", "weak pairs visited/gc"},
	}
	for _, N := range []int{10000, 100000} {
		for _, scanAll := range []bool{false, true} {
			cfg := heap.DefaultConfig()
			cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
			cfg.WeakScanAll = scanAll
			h := heap.MustNew(cfg)
			keep := h.NewRoot(obj.Nil)
			lst := h.NewRoot(obj.Nil)
			for i := 0; i < N; i++ {
				target := h.Cons(fx(int64(i)), obj.Nil)
				keep.Set(h.Cons(target, keep.Get()))
				lst.Set(h.WeakCons(target, lst.Get()))
			}
			h.Collect(h.MaxGeneration())
			h.Collect(h.MaxGeneration())
			const rounds = 10
			h.Stats.Reset()
			start := time.Now()
			for i := 0; i < rounds; i++ {
				churn(h, 2000)
				h.Collect(0)
			}
			elapsed := time.Since(start)
			name := "fresh-only (paper)"
			if scanAll {
				name = "scan-all-weak"
			}
			t.Rows = append(t.Rows, []string{
				ni(N), name,
				ns(float64(elapsed.Nanoseconds()) / rounds),
				ns(float64(h.Stats.PhaseTotals[heap.PhaseWeak].Nanoseconds()) / rounds),
				n(h.Stats.WeakPairsScanned / rounds),
			})
		}
	}
	t.Notes = "with tenured weak pairs, the paper's design visits none at young collections"
	return t
}

// A3 ablates the unswept data space: N kilobytes of live data stored
// as strings (data space, copied but never swept) vs as vectors of
// fixnums (pointer space, every word swept).
func A3() Table {
	t := Table{
		ID:         "A3",
		Title:      "unswept data space vs pointer-kind sweeping",
		PaperClaim: "segments segregate objects by characteristics such as whether they contain pointers (§4)",
		Header:     []string{"live payload", "representation", "full-gc pause", "cells swept/gc"},
	}
	const words = 100000
	for _, asData := range []bool{true, false} {
		h := heap.NewDefault()
		keep := h.NewRoot(obj.Nil)
		if asData {
			for i := 0; i < words/64; i++ {
				keep.Set(h.Cons(h.MakeString(string(make([]byte, 512))), keep.Get()))
			}
		} else {
			for i := 0; i < words/64; i++ {
				keep.Set(h.Cons(h.MakeVector(64, fx(0)), keep.Get()))
			}
		}
		const rounds = 10
		h.Stats.Reset()
		start := time.Now()
		for i := 0; i < rounds; i++ {
			h.Collect(h.MaxGeneration())
		}
		elapsed := time.Since(start)
		name := "vectors (swept)"
		if asData {
			name = "strings (data space)"
		}
		t.Rows = append(t.Rows, []string{
			ni(words * 8), name,
			ns(float64(elapsed.Nanoseconds()) / rounds),
			n(h.Stats.CellsSwept / rounds),
		})
	}
	t.Notes = "equal payload bytes; the data-space representation is copied without sweeping"
	return t
}
