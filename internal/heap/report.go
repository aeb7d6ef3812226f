package heap

import "time"

// CollectionReport is the per-collection record returned by Collect
// and CollectAuto and passed to post-collect hooks. It replaces the
// former Stats.Last* fields (LastPause, LastPhases):
// Stats now holds cumulative counters only, and everything scoped to a single
// collection lives here, snapshotted at a well-defined point so
// readers never observe a collection's state mid-phase.
//
// The report is owned by the heap and reused across collections: the
// pointer returned by Collect (and received by hooks) stays valid, but
// its contents are overwritten by the next collection. Callers that
// need to keep a report across collections should copy the struct
// (and Clone the slices they retain).
//
// Hooks receive the report before the hooks and free phases have
// finished, so Phases[PhaseHooks], Phases[PhaseFree], and Pause are
// finalized only after the hooks return; every other field is final
// when the hook runs.
type CollectionReport struct {
	// Seq is the 1-based collection number (== Stats.Collections at
	// the time the collection ran).
	Seq uint64
	// Gen is the oldest collected generation: generations 0..Gen were
	// collected. Target is where survivors were copied.
	Gen    int
	Target int

	// Gen0Words is the number of generation-0 words allocated since
	// the previous collection, as charged against the trigger
	// (segment-granular: allocation slow paths pre-charge whole
	// segments, large objects their exact size). Together with
	// WordsCopied it is the survival-rate input AdaptivePolicy tunes
	// from. TriggerWords is the generation-0 trigger that was in
	// effect for this cycle (Heap.TriggerWords at collection start;
	// the policy may retune it after the report is finalized).
	Gen0Words    uint64
	TriggerWords int

	// Pause is the total stop-the-world pause; Phases attributes it to
	// the collection phases, indexed by Phase (see PhaseNames). The
	// entries of Phases sum to Pause up to timer granularity.
	Pause  time.Duration
	Phases [NumPhases]time.Duration

	// GuardianRounds is the number of salvage-fixpoint rounds the
	// guardian phase ran (0 when no protected entries were scanned at
	// all); GuardianRoundDurations holds each round's duration,
	// including the triggered re-sweeps. A round that makes no
	// progress terminates the fixpoint and is still counted.
	GuardianRounds         int
	GuardianRoundDurations []time.Duration

	// ProtectedByGen is the per-generation protected-list size after
	// the guardian phase, snapshotted so hooks (and any goroutine
	// handed the report) never race with the live lists.
	ProtectedByGen []int

	// Per-collection deltas of the cumulative Stats counters.
	WordsCopied       uint64
	PairsCopied       uint64
	ObjectsCopied     uint64
	CellsSwept        uint64
	SweepPasses       uint64
	DirtyCellsScanned uint64
	GuardianScanned   uint64
	GuardianSalvaged  uint64
	GuardianHeld      uint64
	GuardianDropped   uint64
	WeakScanned       uint64
	WeakBroken        uint64
	SegmentsFreed     uint64
}

// Clone returns a deep copy of the report, safe to retain after the
// next collection overwrites the heap-owned original.
func (r *CollectionReport) Clone() *CollectionReport {
	c := *r
	c.GuardianRoundDurations = append([]time.Duration(nil), r.GuardianRoundDurations...)
	c.ProtectedByGen = append([]int(nil), r.ProtectedByGen...)
	return &c
}

// LastReport returns the report of the most recent collection, or nil
// if the heap has not collected yet. The returned pointer is the
// heap-owned record reused by every collection; see CollectionReport.
func (h *Heap) LastReport() *CollectionReport {
	if h.report.Seq == 0 {
		return nil
	}
	return &h.report
}
