package heap

import "time"

// This file implements the GC observability layer: per-phase pause
// attribution for Collect, a fixed-size ring buffer of per-collection
// trace events, and an optional per-collection callback. The paper's
// central claims (E1–E10) are about *where* collection time goes —
// guardian scanning proportional to work already done, the weak-pair
// pass ordered after guardian salvage — so the collector records how
// long each phase of every collection took, not just the total pause.
//
// Everything here is zero-allocation when tracing is disabled: phase
// durations accumulate into a fixed array on the Heap, and the trace
// event is only materialized when a ring buffer or callback is
// installed.

// Phase identifies one timed section of Collect. The phases partition
// the collection pause: their durations sum to the pause up to timer
// granularity (asserted by TestPhasesSumToPause).
type Phase int

const (
	// PhaseSetup detaches from-space segment chains, resets the sweep
	// and weak queues, and picks the target generation.
	PhaseSetup Phase = iota
	// PhaseRoots forwards the explicit root slots and the registered
	// root providers.
	PhaseRoots
	// PhaseDirtyScan processes the sharded remembered set: the dirty
	// cells recorded by the write barrier, scanned shard-by-shard. Zero
	// when the dirty set is disabled.
	PhaseDirtyScan
	// PhaseOldScan is the conservative scan of every cell of every
	// older generation, used when the dirty set is disabled
	// (Config.UseDirtySet == false). Zero otherwise.
	PhaseOldScan
	// PhaseSweep is the iterated kleene-sweep of copied objects,
	// including the re-sweeps triggered by guardian salvage.
	PhaseSweep
	// PhaseGuardian is the protected-list algorithm of §4: separating
	// pend-hold from pend-final, salvaging, and migrating entries. Time
	// spent in nested kleene-sweeps is attributed to PhaseSweep, not
	// here, so the guardian column isolates the bookkeeping the paper
	// claims is proportional to work already done.
	PhaseGuardian
	// PhaseWeak is the weak-pair second pass.
	PhaseWeak
	// PhaseHooks runs the registered post-collect hooks (symbol-table
	// pruning, port closing, ...).
	PhaseHooks
	// PhaseFree returns from-space segments to the free list.
	PhaseFree
	// NumPhases is the number of timed phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"setup", "roots", "dirty-scan", "old-scan", "sweep", "guardian", "weak", "hooks", "free",
}

// String returns the phase's short name as used in Stats.String,
// benchgc output, and the gc-phase-stats primitive.
func (p Phase) String() string {
	if p >= 0 && p < NumPhases {
		return phaseNames[p]
	}
	return "phase(?)"
}

// PhaseNames returns the phase names in Phase order; index i names
// PhaseNS[i] of a TraceEvent and Phases[i] of a CollectionReport.
func PhaseNames() []string { return phaseNames[:] }

// TraceEvent is one collection's structured trace record. Counter
// fields are per-collection deltas of the corresponding Stats
// counters; PhaseNS is indexed by Phase (see PhaseNames).
type TraceEvent struct {
	Seq               uint64           `json:"seq"`    // 1-based collection number
	Gen               int              `json:"gen"`    // youngest..Gen were collected
	Target            int              `json:"target"` // survivors copied here
	PauseNS           int64            `json:"pause_ns"`
	PhaseNS           [NumPhases]int64 `json:"phase_ns"`
	WordsCopied       uint64           `json:"words_copied"`
	PairsCopied       uint64           `json:"pairs_copied"`
	ObjectsCopied     uint64           `json:"objects_copied"`
	CellsSwept        uint64           `json:"cells_swept"`
	SweepPasses       uint64           `json:"sweep_passes"`
	DirtyCellsScanned uint64           `json:"dirty_cells_scanned"`
	GuardianScanned   uint64           `json:"guardian_scanned"`
	GuardianSalvaged  uint64           `json:"guardian_salvaged"`
	GuardianHeld      uint64           `json:"guardian_held"`
	GuardianDropped   uint64           `json:"guardian_dropped"`
	WeakScanned       uint64           `json:"weak_scanned"`
	WeakBroken        uint64           `json:"weak_broken"`
	SegmentsFreed     uint64           `json:"segments_freed"`
	// GuardianRounds is the number of salvage-fixpoint rounds the
	// guardian phase ran (0 when no protected entries were scanned);
	// GuardianRoundNS holds each round's duration including the
	// triggered re-sweeps.
	GuardianRounds  int     `json:"guardian_rounds"`
	GuardianRoundNS []int64 `json:"guardian_round_ns,omitempty"`
	// DirtyShardCells holds the number of live remembered cells the
	// dirty-scan phase examined in each shard, indexed by shard number
	// (0..RemShards-1); its sum is the collection's DirtyCellsScanned
	// delta. Nil when the dirty set is disabled.
	DirtyShardCells []uint64 `json:"dirty_shard_cells,omitempty"`
	// MutatorsSuspended and SafepointWaitNS are always 0 (and omitted):
	// a heap has one mutator at a time, which a collection stops by
	// being called from it. They stay for the benchmark harness, which
	// still reads them.
	MutatorsSuspended int   `json:"mutators_suspended,omitempty"`
	SafepointWaitNS   int64 `json:"safepoint_wait_ns,omitempty"`
}

// PhaseDurations returns the event's phase timings keyed by phase
// name. It allocates; intended for reporting, not the hot path.
func (e *TraceEvent) PhaseDurations() map[string]time.Duration {
	m := make(map[string]time.Duration, NumPhases)
	for i, ns := range e.PhaseNS {
		m[phaseNames[i]] = time.Duration(ns)
	}
	return m
}

// EnableTrace installs a ring buffer keeping the most recent capacity
// collection records, replacing any previous ring. capacity <= 0
// disables the ring (and frees it). The ring is allocated once, here;
// recording into it never allocates.
func (h *Heap) EnableTrace(capacity int) {
	if capacity <= 0 {
		h.traceBuf = nil
		h.traceLen, h.traceNext = 0, 0
		return
	}
	h.traceBuf = make([]TraceEvent, capacity)
	h.traceLen, h.traceNext = 0, 0
}

// TraceEnabled reports whether a trace ring is installed.
func (h *Heap) TraceEnabled() bool { return h.traceBuf != nil }

// SetTraceFunc installs fn to be called with each collection's trace
// event as the collection finishes (after phase durations and pause
// are final, before Collect returns). The callback runs with the heap
// still in-collection state cleared, so it may inspect the heap but
// must not allocate from within a collect-request handler context.
// Passing nil removes the callback.
func (h *Heap) SetTraceFunc(fn func(TraceEvent)) { h.traceFn = fn }

// TraceEvents returns the ring's recorded events, oldest first. The
// returned slice is a copy.
func (h *Heap) TraceEvents() []TraceEvent {
	if h.traceBuf == nil || h.traceLen == 0 {
		return nil
	}
	out := make([]TraceEvent, 0, h.traceLen)
	start := h.traceNext - h.traceLen
	if start < 0 {
		start += len(h.traceBuf)
	}
	for i := 0; i < h.traceLen; i++ {
		out = append(out, h.traceBuf[(start+i)%len(h.traceBuf)])
	}
	return out
}

// recordTrace materializes and publishes the trace event for the
// collection whose finished CollectionReport is rep. No-op (and
// allocation-free) when neither a ring nor a callback is installed.
func (h *Heap) recordTrace(rep *CollectionReport) {
	if h.traceBuf == nil && h.traceFn == nil {
		return
	}
	ev := TraceEvent{
		Seq:               rep.Seq,
		Gen:               rep.Gen,
		Target:            rep.Target,
		PauseNS:           rep.Pause.Nanoseconds(),
		WordsCopied:       rep.WordsCopied,
		PairsCopied:       rep.PairsCopied,
		ObjectsCopied:     rep.ObjectsCopied,
		CellsSwept:        rep.CellsSwept,
		SweepPasses:       rep.SweepPasses,
		DirtyCellsScanned: rep.DirtyCellsScanned,
		GuardianScanned:   rep.GuardianScanned,
		GuardianSalvaged:  rep.GuardianSalvaged,
		GuardianHeld:      rep.GuardianHeld,
		GuardianDropped:   rep.GuardianDropped,
		WeakScanned:       rep.WeakScanned,
		WeakBroken:        rep.WeakBroken,
		SegmentsFreed:     rep.SegmentsFreed,
		GuardianRounds:    rep.GuardianRounds,
	}
	ev.PhaseNS = h.phaseNS
	if h.cfg.UseDirtySet && h.dirtyMap == nil {
		ev.DirtyShardCells = make([]uint64, RemShards)
		copy(ev.DirtyShardCells, rep.ShardDirty[:])
	}
	if n := len(rep.GuardianRoundDurations); n > 0 {
		ev.GuardianRoundNS = make([]int64, n)
		for i, d := range rep.GuardianRoundDurations {
			ev.GuardianRoundNS[i] = d.Nanoseconds()
		}
	}
	if h.traceBuf != nil {
		h.traceBuf[h.traceNext] = ev
		h.traceNext = (h.traceNext + 1) % len(h.traceBuf)
		if h.traceLen < len(h.traceBuf) {
			h.traceLen++
		}
	}
	if h.traceFn != nil {
		h.traceFn(ev)
	}
}
