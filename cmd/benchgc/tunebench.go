package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
)

// benchgc -tune-bench: the AutoTune ablation. It runs three
// trigger-driven workloads — gcbench (binary-tree build/drop),
// hashtable (insert/rehash/reset churn), recycle (sliding window of
// short-lived lists) — twice each: once under the fixed default policy
// and once with Config.AutoTune, which retunes the gen-0 trigger from
// measured survival after every collection. Collections are never
// explicit: the workloads allocate and poll Checkpoint, so the
// collection cadence is entirely the policy's, which is the thing
// being measured.
//
// Per workload x policy cell the report carries p50 mutator throughput
// (ops per second of non-GC time), total GC pause time, the collection
// count, and the trigger the adaptive policy converged to. The
// headline comparisons — AutoTune matches or beats fixed on at least
// one workload, and never regresses p50 mutator throughput by more
// than 10% on any — are enforced by the schema self-check at full
// scale (the reduced-scale CI smoke checks schema only; timing ratios
// at toy sizes are noise).

// tuneDefaultOps is the per-rep operation count of the committed
// full-scale run.
const tuneDefaultOps = 1_500_000

// tuneQuantiles is benchQuantiles for a unitless measure (ops/sec
// here), so the JSON field names don't claim nanoseconds.
type tuneQuantiles struct {
	P50  int64 `json:"p50"`
	P90  int64 `json:"p90"`
	P99  int64 `json:"p99"`
	Max  int64 `json:"max"`
	Mean int64 `json:"mean"`
}

func tuneQuantilesOf(xs []int64) tuneQuantiles {
	q := quantilesOf(xs)
	return tuneQuantiles{P50: q.P50, P90: q.P90, P99: q.P99, Max: q.Max, Mean: q.Mean}
}

type tuneCell struct {
	Policy string `json:"policy"` // "fixed" or "autotune"
	Reps   int    `json:"reps"`
	// MutatorOpsPerSec quantiles are over per-rep mutator throughput:
	// ops divided by (wall time minus GC pause time).
	MutatorOpsPerSec tuneQuantiles `json:"mutator_ops_per_sec"`
	// GCTotal quantiles are over per-rep summed collection pauses.
	GCTotal        benchQuantiles `json:"gc_total"`
	CollectionsP50 int64          `json:"collections_p50"`
	// TriggerWords is the final rep's live gen-0 trigger: the
	// configured constant for fixed, the converged value for autotune.
	TriggerWords int `json:"trigger_words"`
}

type tuneWorkloadResult struct {
	Workload string   `json:"workload"`
	Ops      int      `json:"ops"`
	Fixed    tuneCell `json:"fixed"`
	AutoTune tuneCell `json:"autotune"`
	// ThroughputRatio is autotune/fixed p50 mutator throughput (>1 =
	// autotune faster); GCTimeRatio is autotune/fixed p50 total GC
	// pause (<1 = autotune pauses less).
	ThroughputRatio float64 `json:"throughput_ratio"`
	GCTimeRatio     float64 `json:"gc_time_ratio"`
	// Improved: autotune matched or beat fixed on p50 mutator
	// throughput or on total GC time.
	Improved bool `json:"improved"`
}

type tuneBenchReport struct {
	Description string               `json:"description"`
	GoMaxProcs  int                  `json:"gomaxprocs"`
	Reps        int                  `json:"reps"`
	Ops         int                  `json:"ops"`
	FullScale   bool                 `json:"full_scale"`
	Workloads   []tuneWorkloadResult `json:"workloads"`
	// ImprovedWorkloads counts workloads where autotune matched or
	// beat fixed; MaxThroughputRegressionPct is the worst p50 mutator
	// throughput loss across workloads (0 = no workload regressed).
	ImprovedWorkloads          int     `json:"improved_workloads"`
	MaxThroughputRegressionPct float64 `json:"max_throughput_regression_pct"`
	// AcceptancePass is the headline claim, asserted by the self-check
	// when FullScale: >= 1 improved workload and no regression > 10%.
	AcceptancePass bool `json:"acceptance_pass"`
}

// tuneWorkload is one workload: fn drives ops operations against h,
// polling h.Checkpoint so the policy's trigger decides every
// collection.
type tuneWorkload struct {
	name string
	fn   func(h *heap.Heap, ops int)
}

// tuneTree builds a complete binary tree of pairs of the given depth
// (2^depth - 1 conses). Safe to hold in Go locals: collections happen
// only at Checkpoint.
func tuneTree(h *heap.Heap, depth int) obj.Value {
	if depth == 0 {
		return obj.Nil
	}
	return h.Cons(tuneTree(h, depth-1), tuneTree(h, depth-1))
}

// tuneGCBench is the binary-tree workload: a rooted long-lived tree
// for residency, a stream of short-lived trees for death. One op = one
// allocated tree node.
func tuneGCBench(h *heap.Heap, ops int) {
	long := h.NewRoot(tuneTree(h, 12)) // 4095 long-lived nodes
	defer long.Release()
	const shortDepth = 8 // 255 nodes per short tree
	for done := 0; done < ops; done += 255 {
		tuneTree(h, shortDepth)
		h.Checkpoint()
	}
}

// tuneHashtable is the table-churn workload: chained insertion into a
// rooted bucket vector, doubling rehash on load factor 8 (the rehash
// allocates progressively larger vectors, exercising the large-object
// run pool), and a full reset at 60k entries (mass death). One op =
// one insertion.
func tuneHashtable(h *heap.Heap, ops int) {
	table := h.NewRoot(h.MakeVector(64, obj.Nil))
	defer table.Release()
	count := 0
	for i := 0; i < ops; i++ {
		vec := table.Get()
		n := h.VectorLength(vec)
		key := int64(uint32(i*2654435761) % 1_000_003)
		idx := int(key) % n
		entry := h.Cons(obj.FromFixnum(key), obj.FromFixnum(int64(i)))
		h.VectorSet(vec, idx, h.Cons(entry, h.VectorRef(vec, idx)))
		count++
		switch {
		case count >= 60_000:
			table.Set(h.MakeVector(64, obj.Nil)) // reset: everything dies
			count = 0
		case count >= 8*n:
			// Rehash into a doubled vector.
			nv := h.MakeVector(2*n, obj.Nil)
			tmp := h.NewRoot(nv)
			for b := 0; b < n; b++ {
				for c := h.VectorRef(table.Get(), b); c != obj.Nil; c = h.Cdr(c) {
					e := h.Car(c)
					j := int(h.Car(e).FixnumValue()) % (2 * n)
					h.VectorSet(tmp.Get(), j, h.Cons(e, h.VectorRef(tmp.Get(), j)))
				}
			}
			table.Set(tmp.Get())
			tmp.Release()
		}
		if i&255 == 255 {
			h.Checkpoint()
		}
	}
}

// tuneRecycle is the sliding-window workload: a ring of 64 rooted
// lists of 100 pairs each; every step builds a fresh list and evicts
// the oldest, so nearly everything allocated dies young. One op = one
// allocated pair.
func tuneRecycle(h *heap.Heap, ops int) {
	const window, listLen = 64, 100
	ring := make([]*heap.Root, window)
	for i := range ring {
		ring[i] = h.NewRoot(obj.Nil)
	}
	defer func() {
		for _, r := range ring {
			r.Release()
		}
	}()
	slot := 0
	for done := 0; done < ops; done += listLen {
		var lst obj.Value = obj.Nil
		for j := 0; j < listLen; j++ {
			lst = h.Cons(obj.FromFixnum(int64(j)), lst)
		}
		ring[slot].Set(lst)
		slot = (slot + 1) % window
		h.Checkpoint()
	}
}

var tuneWorkloads = []tuneWorkload{
	{"gcbench", tuneGCBench},
	{"hashtable", tuneHashtable},
	{"recycle", tuneRecycle},
}

// tuneRep runs one workload rep under the given policy mode and
// returns wall ns, summed GC pause ns, collection count, and the final
// live trigger.
func tuneRep(wl tuneWorkload, autotune bool, ops int) (wallNS, gcNS int64, collections uint64, trigger int, err error) {
	cfg := heap.DefaultConfig()
	cfg.AutoTune = autotune
	h, err := heap.New(cfg)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	h.SetTraceFunc(func(ev heap.TraceEvent) { gcNS += ev.PauseNS })
	start := time.Now()
	wl.fn(h, ops)
	wallNS = time.Since(start).Nanoseconds()
	h.MustVerify()
	return wallNS, gcNS, h.Stats.Collections, h.TriggerWords(), nil
}

// tuneCellOf measures reps repetitions of one workload x policy cell.
func tuneCellOf(wl tuneWorkload, autotune bool, reps, ops int) (tuneCell, error) {
	name := "fixed"
	if autotune {
		name = "autotune"
	}
	cell := tuneCell{Policy: name, Reps: reps}
	var thru, gc, colls []int64
	for r := 0; r < reps; r++ {
		wallNS, gcNS, collections, trigger, err := tuneRep(wl, autotune, ops)
		if err != nil {
			return tuneCell{}, err
		}
		mutNS := wallNS - gcNS
		if mutNS <= 0 {
			mutNS = 1
		}
		thru = append(thru, int64(float64(ops)/(float64(mutNS)/1e9)))
		gc = append(gc, gcNS)
		colls = append(colls, int64(collections))
		cell.TriggerWords = trigger
	}
	cell.MutatorOpsPerSec = tuneQuantilesOf(thru)
	cell.GCTotal = quantilesOf(gc)
	cell.CollectionsP50 = quantilesOf(colls).P50
	return cell, nil
}

// runTuneBench runs the ablation and writes the JSON report to path,
// echoing a human-readable summary to out.
func runTuneBench(out io.Writer, path string, reps, ops int) error {
	if reps <= 0 {
		reps = 5
	}
	if ops <= 0 {
		ops = tuneDefaultOps
	}
	fullScale := reps >= 5 && ops >= tuneDefaultOps
	rep := tuneBenchReport{
		Description: "AutoTune (survival-driven gen-0 trigger) vs the fixed default policy " +
			"on trigger-driven gcbench/hashtable/recycle workloads",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Ops:        ops,
		FullScale:  fullScale,
	}
	fmt.Fprintf(out, "tune-bench: %d reps x %d ops per workload, GOMAXPROCS=%d (full scale: %v)\n",
		reps, ops, rep.GoMaxProcs, fullScale)
	fmt.Fprintf(out, "%-10s  %14s  %14s  %10s  %10s  %8s\n",
		"workload", "fixed ops/s", "tuned ops/s", "gc fixed", "gc tuned", "trigger")
	for _, wl := range tuneWorkloads {
		fixed, err := tuneCellOf(wl, false, reps, ops)
		if err != nil {
			return fmt.Errorf("%s/fixed: %w", wl.name, err)
		}
		tuned, err := tuneCellOf(wl, true, reps, ops)
		if err != nil {
			return fmt.Errorf("%s/autotune: %w", wl.name, err)
		}
		res := tuneWorkloadResult{
			Workload: wl.name,
			Ops:      ops,
			Fixed:    fixed,
			AutoTune: tuned,
		}
		if fixed.MutatorOpsPerSec.P50 > 0 {
			res.ThroughputRatio = float64(tuned.MutatorOpsPerSec.P50) / float64(fixed.MutatorOpsPerSec.P50)
		}
		if fixed.GCTotal.P50 > 0 {
			res.GCTimeRatio = float64(tuned.GCTotal.P50) / float64(fixed.GCTotal.P50)
		}
		res.Improved = res.ThroughputRatio >= 1.0 || (res.GCTimeRatio > 0 && res.GCTimeRatio <= 1.0)
		if res.Improved {
			rep.ImprovedWorkloads++
		}
		if reg := (1 - res.ThroughputRatio) * 100; reg > rep.MaxThroughputRegressionPct {
			rep.MaxThroughputRegressionPct = reg
		}
		rep.Workloads = append(rep.Workloads, res)
		fmt.Fprintf(out, "%-10s  %14d  %14d  %8.1fms  %8.1fms  %8d\n",
			wl.name, fixed.MutatorOpsPerSec.P50, tuned.MutatorOpsPerSec.P50,
			float64(fixed.GCTotal.P50)/1e6, float64(tuned.GCTotal.P50)/1e6,
			tuned.TriggerWords)
	}
	rep.AcceptancePass = rep.ImprovedWorkloads >= 1 && rep.MaxThroughputRegressionPct <= 10
	fmt.Fprintf(out, "tune-bench: %d/%d workloads improved, worst throughput regression %.1f%%, acceptance %v\n",
		rep.ImprovedWorkloads, len(rep.Workloads), rep.MaxThroughputRegressionPct, rep.AcceptancePass)

	var fresh tuneBenchReport
	return writeBenchReport(out, "tune-bench", path, &rep, &fresh, func() error {
		return checkTuneBench(&fresh, reps, ops)
	})
}

// checkTuneBench validates the re-read report for writeBenchReport:
// all three workloads present with positive measurements at the
// requested scale, ratios consistent with their cells, and — at full
// scale only — the headline acceptance claim itself.
func checkTuneBench(rep *tuneBenchReport, reps, ops int) error {
	if rep.Reps != reps || rep.Ops != ops {
		return fmt.Errorf("scale = %dx%d, want %dx%d", rep.Reps, rep.Ops, reps, ops)
	}
	if len(rep.Workloads) != len(tuneWorkloads) {
		return fmt.Errorf("workloads = %d, want %d", len(rep.Workloads), len(tuneWorkloads))
	}
	for _, w := range rep.Workloads {
		if w.Fixed.MutatorOpsPerSec.P50 <= 0 || w.AutoTune.MutatorOpsPerSec.P50 <= 0 {
			return fmt.Errorf("%s: non-positive throughput: %+v / %+v", w.Workload,
				w.Fixed.MutatorOpsPerSec, w.AutoTune.MutatorOpsPerSec)
		}
		if w.Fixed.CollectionsP50 <= 0 || w.AutoTune.CollectionsP50 <= 0 {
			return fmt.Errorf("%s: a cell never collected (fixed %d, tuned %d) — the workload is not trigger-driven",
				w.Workload, w.Fixed.CollectionsP50, w.AutoTune.CollectionsP50)
		}
		if w.AutoTune.TriggerWords <= 0 {
			return fmt.Errorf("%s: autotune trigger_words = %d", w.Workload, w.AutoTune.TriggerWords)
		}
		if w.ThroughputRatio <= 0 {
			return fmt.Errorf("%s: throughput_ratio = %v", w.Workload, w.ThroughputRatio)
		}
	}
	if rep.FullScale && !rep.AcceptancePass {
		return fmt.Errorf("full-scale acceptance failed: %d improved workloads, %.1f%% worst regression",
			rep.ImprovedWorkloads, rep.MaxThroughputRegressionPct)
	}
	return nil
}
