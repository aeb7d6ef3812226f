package main

import (
	"sync"

	"repro/internal/heap"
)

// metricDef names one metric of BENCHMARK.json. The tables below are
// the source the JSON file is checked against (bench_test.go).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end metrics only
}

// Regression bounds come from the run-to-run spread measured on the
// 2-vCPU shared host (NOISE.md, README "Noise"). Identical runs of the
// timing metrics differ by 3-11 % between quartiles in a quiet hour and
// by 10-23 % when the host changes speed between runs, which it does
// for minutes at a time; the driver allows no bound above 25 %.
// live_mb repeats within 0.2-1.5 % on the gated workloads.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"live_mb", "MiB", "lower", 0.05},
}

var perLayerMetrics = func() []metricDef {
	var ms []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ms = append(ms, metricDef{name: n, unit: unit, better: better})
		}
	}
	add("us", "lower", "server.register_p50_us", "server.register_p99_us", "server.send_p50_us")
	add("ratio", "lower", "server.wait_share")
	add("us", "lower", "server.reclaim_p50_us", "server.reclaim_p99_us")
	add("count", "lower", "server.drain_collections_per_session", "server.idle_collects", "server.drain_collects")
	add("count", "higher", "server.template_boots")
	add("count", "lower", "server.prelude_boots", "server.leaked")

	add("us", "lower", "scheme.eval_p50_us", "scheme.eval_p99_us")
	add("ratio", "lower", "scheme.eval_share")
	add("words", "lower", "scheme.words_per_request")

	add("ns/word", "lower", "heap.alloc.ns_per_word")
	add("words", "lower", "heap.alloc.words")
	add("count", "lower", "heap.alloc.segments")
	add("ratio", "lower", "heap.alloc.share")

	add("ns", "lower", "heap.barrier.ns_per_store")
	add("count", "lower", "heap.barrier.hits")
	add("ratio", "lower", "heap.barrier.hit_ratio")

	add("count", "lower", "heap.collect.count", "heap.collect.count_young", "heap.collect.count_old")
	add("ratio", "lower", "heap.collect.share")
	add("us", "lower", "heap.collect.pause_p50_us", "heap.collect.pause_p99_us", "heap.collect.pause_max_us",
		"heap.collect.young_pause_p50_us", "heap.collect.old_pause_p50_us")
	for _, p := range heap.PhaseNames() {
		add("ratio", "lower", "heap.collect.phase."+p+"_share")
	}
	add("count", "lower", "heap.collect.words_copied_per_gc", "heap.collect.cells_swept_per_gc",
		"heap.collect.sweep_passes_per_gc", "heap.collect.dirty_cells_per_gc")
	add("count", "higher", "heap.collect.segments_freed_per_gc")
	add("ns/word", "lower", "heap.collect.ns_per_word_copied")
	add("ratio", "lower", "heap.collect.survival")

	add("count", "lower", "heap.guardian.scanned_per_gc", "heap.guardian.scanned_per_young_gc",
		"heap.guardian.salvaged_per_gc", "heap.guardian.held_per_gc", "heap.guardian.dropped",
		"heap.guardian.rounds_per_gc")
	add("ns", "lower", "heap.guardian.ns_per_scanned")
	add("count", "lower", "heap.weak.scanned_per_gc", "heap.weak.broken_per_gc")
	add("ns", "lower", "heap.weak.ns_per_scanned")

	add("us", "lower", "heap.safepoint.wait_p50_us", "heap.safepoint.wait_p99_us")
	add("count", "lower", "heap.safepoint.suspended_per_gc")
	add("ratio", "lower", "heap.mutator.park_share")

	add("us", "lower", "heap.template.clone_p50_us")
	add("count", "lower", "heap.template.cow_copies_per_session")
	add("count", "higher", "heap.template.shared_segments_per_session")

	add("ns", "lower", "core.guardian.register_ns", "core.guardian.get_ns", "core.table.access_ns")
	add("count", "lower", "core.tconc.backlog_p50", "core.tconc.backlog_max",
		"core.drag_p50_collections", "core.drag_p99_collections")
	add("us", "lower", "core.drag_p50_us", "core.drag_p99_us")

	add("ns", "lower", "ports.close_dropped_ns")
	add("count", "higher", "ports.closed")
	add("ns", "lower", "extres.release_ns")
	add("count", "higher", "extres.released")
	add("count", "lower", "seg.in_use_peak", "seg.in_use_end")

	add("count", "lower", "go.mallocs_per_op", "go.gc_cycles")
	add("ratio", "lower", "go.gc_cpu_share", "trace.overhead_share")
	add("ratio", "higher", "trace.coverage_share")
	return ms
}()

// exactLayerMetrics are the per-layer counts that repeat exactly when a
// single-goroutine heap workload runs a fixed number of batches at one
// seed; -selfcheck verifies it.
var exactLayerMetrics = []string{
	"heap.alloc.words", "heap.alloc.segments", "heap.barrier.hits", "heap.barrier.hit_ratio",
	"heap.collect.count", "heap.collect.count_young", "heap.collect.count_old",
	"heap.collect.words_copied_per_gc", "heap.collect.cells_swept_per_gc",
	"heap.collect.sweep_passes_per_gc", "heap.collect.dirty_cells_per_gc",
	"heap.collect.segments_freed_per_gc", "heap.collect.survival",
	"heap.guardian.scanned_per_gc", "heap.guardian.scanned_per_young_gc",
	"heap.guardian.salvaged_per_gc", "heap.guardian.held_per_gc", "heap.guardian.dropped",
	"heap.guardian.rounds_per_gc", "heap.weak.scanned_per_gc", "heap.weak.broken_per_gc",
	"core.tconc.backlog_p50", "core.tconc.backlog_max",
	"core.drag_p50_collections", "core.drag_p99_collections",
	"seg.in_use_peak", "seg.in_use_end",
}

// gcAgg sums the collector's own per-collection records over every
// heap of a run. It is fed by heap.SetTraceFunc, whose event carries
// the final pause and phase times (a post-collect hook runs before the
// hooks and free phases are closed). Server sessions collect on
// executor and GC-worker goroutines, hence the lock.
type gcAgg struct {
	mu sync.Mutex
	gcTotals
}

type gcTotals struct {
	n, young, old                            int64
	pauses, youngPauses, oldPauses           []int64
	pauseNS                                  int64
	phaseNS                                  [heap.NumPhases]int64
	wordsCopied, cellsSwept, sweepPasses     uint64
	dirtyCells, segsFreed                    uint64
	scanned, scannedYoung, salvaged, held    uint64
	dropped, rounds, weakScanned, weakBroken uint64
	spWaits                                  []int64
	suspended                                int64
	parkNS                                   int64 // pause + wait, times mutators suspended
	segPeak                                  int
}

// attach makes a count every collection of h.
func (a *gcAgg) attach(h *heap.Heap) {
	h.SetTraceFunc(func(ev heap.TraceEvent) {
		inUse := h.SegmentsInUse()
		a.mu.Lock()
		defer a.mu.Unlock()
		a.n++
		a.pauses = append(a.pauses, ev.PauseNS)
		if ev.Gen == 0 {
			a.young++
			a.youngPauses = append(a.youngPauses, ev.PauseNS)
			a.scannedYoung += ev.GuardianScanned
		} else {
			a.old++
			a.oldPauses = append(a.oldPauses, ev.PauseNS)
		}
		a.pauseNS += ev.PauseNS
		for i, ns := range ev.PhaseNS {
			a.phaseNS[i] += ns
		}
		a.wordsCopied += ev.WordsCopied
		a.cellsSwept += ev.CellsSwept
		a.sweepPasses += ev.SweepPasses
		a.dirtyCells += ev.DirtyCellsScanned
		a.segsFreed += ev.SegmentsFreed
		a.scanned += ev.GuardianScanned
		a.salvaged += ev.GuardianSalvaged
		a.held += ev.GuardianHeld
		a.dropped += ev.GuardianDropped
		a.rounds += uint64(ev.GuardianRounds)
		a.weakScanned += ev.WeakScanned
		a.weakBroken += ev.WeakBroken
		if ev.MutatorsSuspended > 0 {
			a.spWaits = append(a.spWaits, ev.SafepointWaitNS)
			a.suspended += int64(ev.MutatorsSuspended)
			a.parkNS += (ev.PauseNS + ev.SafepointWaitNS) * int64(ev.MutatorsSuspended)
		}
		if inUse > a.segPeak {
			a.segPeak = inUse
		}
	})
}

func (a *gcAgg) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gcTotals = gcTotals{}
}

func pctUS(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(percentile(sortedCopy(xs), p)) / 1e3
}

// emit writes the collector metrics. measuredNS is the length of the
// measured phase, mutatorWords the words the mutator allocated in it
// and mutators the number of mutator goroutines.
func (a *gcAgg) emit(m map[string]float64, measuredNS int64, mutatorWords uint64, mutators int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := float64(a.n)
	m["heap.collect.count"] = n
	m["heap.collect.count_young"] = float64(a.young)
	m["heap.collect.count_old"] = float64(a.old)
	m["heap.collect.share"] = ratio(float64(a.pauseNS), float64(measuredNS))
	m["heap.collect.pause_p50_us"] = pctUS(a.pauses, 50)
	m["heap.collect.pause_p99_us"] = pctUS(a.pauses, 99)
	m["heap.collect.pause_max_us"] = pctUS(a.pauses, 100)
	m["heap.collect.young_pause_p50_us"] = pctUS(a.youngPauses, 50)
	m["heap.collect.old_pause_p50_us"] = pctUS(a.oldPauses, 50)
	for i, p := range heap.PhaseNames() {
		m["heap.collect.phase."+p+"_share"] = ratio(float64(a.phaseNS[i]), float64(a.pauseNS))
	}
	m["heap.collect.words_copied_per_gc"] = ratio(float64(a.wordsCopied), n)
	m["heap.collect.cells_swept_per_gc"] = ratio(float64(a.cellsSwept), n)
	m["heap.collect.sweep_passes_per_gc"] = ratio(float64(a.sweepPasses), n)
	m["heap.collect.dirty_cells_per_gc"] = ratio(float64(a.dirtyCells), n)
	m["heap.collect.segments_freed_per_gc"] = ratio(float64(a.segsFreed), n)
	m["heap.collect.ns_per_word_copied"] = ratio(float64(a.phaseNS[heap.PhaseSweep]+a.phaseNS[heap.PhaseRoots]+a.phaseNS[heap.PhaseDirtyScan]), float64(a.wordsCopied))
	m["heap.collect.survival"] = ratio(float64(a.wordsCopied), float64(mutatorWords))
	m["heap.guardian.scanned_per_gc"] = ratio(float64(a.scanned), n)
	m["heap.guardian.scanned_per_young_gc"] = ratio(float64(a.scannedYoung), float64(a.young))
	m["heap.guardian.salvaged_per_gc"] = ratio(float64(a.salvaged), n)
	m["heap.guardian.held_per_gc"] = ratio(float64(a.held), n)
	m["heap.guardian.dropped"] = float64(a.dropped)
	m["heap.guardian.rounds_per_gc"] = ratio(float64(a.rounds), n)
	m["heap.guardian.ns_per_scanned"] = ratio(float64(a.phaseNS[heap.PhaseGuardian]), float64(a.scanned))
	m["heap.weak.scanned_per_gc"] = ratio(float64(a.weakScanned), n)
	m["heap.weak.broken_per_gc"] = ratio(float64(a.weakBroken), n)
	m["heap.weak.ns_per_scanned"] = ratio(float64(a.phaseNS[heap.PhaseWeak]), float64(a.weakScanned))
	m["heap.safepoint.wait_p50_us"] = pctUS(a.spWaits, 50)
	m["heap.safepoint.wait_p99_us"] = pctUS(a.spWaits, 99)
	m["heap.safepoint.suspended_per_gc"] = ratio(float64(a.suspended), n)
	m["heap.mutator.park_share"] = ratio(float64(a.parkNS), float64(measuredNS)*float64(mutators))
	m["seg.in_use_peak"] = float64(a.segPeak)
}

// heapMark is a heap's cumulative counters at the start of the
// measured phase, for the single-heap workloads.
type heapMark struct {
	words, copied, segs, hits uint64
	stores                    int64 // barriered stores the harness has made
}

func markHeap(h *heap.Heap, stores int64) heapMark {
	st := &h.Stats
	return heapMark{st.WordsAllocated, st.WordsCopied, st.SegmentsAllocated, st.BarrierHits, stores}
}

// emitHeap writes the allocation and barrier metrics of a single-heap
// workload from the counters since the mark, and tells the phase how
// much the mutators allocated. stores is the harness's running count of
// barriered stores; spanPerStore says whether each had a span of its
// own or one span covered an operation's worth.
func (k heapMark) emitHeap(m map[string]float64, ph *phase, h *heap.Heap, ts []*tracer, stores int64, spanPerStore bool) {
	st := &h.Stats
	// The collector's copies are counted as allocation too.
	ph.mutatorWords = st.WordsAllocated - k.words - (st.WordsCopied - k.copied)
	tracedShare := ratio(float64(ph.tracedOps), float64(ph.ops))
	stores -= k.stores
	hits := float64(st.BarrierHits - k.hits)
	m["heap.alloc.ns_per_word"] = netNS(ts, spHeapAlloc, float64(ph.mutatorWords)*tracedShare)
	m["heap.alloc.words"] = float64(ph.mutatorWords)
	m["heap.alloc.segments"] = float64(st.SegmentsAllocated - k.segs)
	m["heap.alloc.share"] = ratio(float64(sumTotals(ts, spHeapAlloc).total), float64(ph.tracedOpNS))
	if spanPerStore {
		m["heap.barrier.ns_per_store"] = netNS(ts, spHeapStore, 0)
	} else {
		m["heap.barrier.ns_per_store"] = netNS(ts, spHeapStore, float64(stores)*tracedShare)
	}
	m["heap.barrier.hits"] = hits
	m["heap.barrier.hit_ratio"] = ratio(hits, float64(stores))
	m["seg.in_use_end"] = float64(h.SegmentsInUse())
}
