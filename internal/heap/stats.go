package heap

import (
	"fmt"
	"strings"
	"time"
)

// Stats accumulates collector and mutator counters. The experiment
// harness uses them to verify the paper's proportionality claims
// independently of wall-clock noise: E1 checks that
// GuardianEntriesScanned stays flat as old-generation registrations
// grow, and the ablations compare DirtyCellsScanned and
// WeakPairsScanned across configurations. See docs/ALGORITHM.md for a
// glossary of every counter.
type Stats struct {
	WordsAllocated    uint64
	SegmentsAllocated uint64
	SegmentsFreed     uint64

	Collections uint64
	// CollectionsByGen[g] counts collections whose youngest..g range
	// was collected. It is sized on demand from the generations the
	// heap actually collects, so configurations with any number of
	// generations are counted (it was once a fixed [16]uint64 that
	// silently dropped increments beyond generation 15).
	CollectionsByGen []uint64
	WordsCopied      uint64
	PairsCopied      uint64
	ObjectsCopied    uint64
	CellsSwept       uint64
	// SweepPasses counts kleene-sweep passes that swept a copied
	// object. A pass scans to-space up to the frontiers the cursors
	// held when it began, so the objects copied during one pass are the
	// next one's. A cdr chain of k pairs costs one pass, because the
	// forward that reaches its head copies the whole chain; a chain of
	// k pairs linked through their cars costs k. The re-sweeps run
	// inside the guardian phase's salvage loop are included (§4's
	// "iterated" sweep).
	SweepPasses uint64

	// BarrierHits counts old-to-young stores, after each of which the
	// cell's segment is marked at least as young as the referent;
	// DirtyCellsScanned the words the dirty scan
	// examined (the whole of each dirty segment it did not skip), or
	// with the dirty set disabled the older generations' words scanned.
	BarrierHits       uint64
	DirtyCellsScanned uint64

	GuardianRegistrations   uint64
	GuardianEntriesScanned  uint64
	GuardianEntriesSalvaged uint64
	GuardianEntriesHeld     uint64
	GuardianEntriesDropped  uint64

	WeakPairsScanned   uint64
	WeakPointersBroken uint64

	// TotalPause accumulates every collection's stop-the-world pause;
	// PhaseTotals attributes it to the collection phases, indexed by
	// Phase (see PhaseNames). Per-collection figures — the last pause,
	// its phase breakdown, the guardian rounds — live in
	// CollectionReport (returned by Collect/CollectAuto, retained via
	// Heap.LastReport): Stats holds cumulative counters only.
	TotalPause  time.Duration
	PhaseTotals [NumPhases]time.Duration
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// countCollection records a collection of generations 0..g, growing
// CollectionsByGen as needed so no increment is ever dropped.
func (s *Stats) countCollection(g int) {
	s.Collections++
	for len(s.CollectionsByGen) <= g {
		s.CollectionsByGen = append(s.CollectionsByGen, 0)
	}
	s.CollectionsByGen[g]++
}

// String renders the counters in a compact multi-line report.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "alloc: %d words, %d segs (+%d freed)\n",
		s.WordsAllocated, s.SegmentsAllocated, s.SegmentsFreed)
	fmt.Fprintf(&b, "gc: %d collections, %d words copied, %d cells swept, %d sweep passes\n",
		s.Collections, s.WordsCopied, s.CellsSwept, s.SweepPasses)
	fmt.Fprintf(&b, "barrier: %d hits, %d dirty cells scanned\n",
		s.BarrierHits, s.DirtyCellsScanned)
	fmt.Fprintf(&b, "guardians: %d registered, %d scanned, %d salvaged, %d held, %d dropped\n",
		s.GuardianRegistrations, s.GuardianEntriesScanned,
		s.GuardianEntriesSalvaged, s.GuardianEntriesHeld, s.GuardianEntriesDropped)
	fmt.Fprintf(&b, "weak: %d scanned, %d broken\n",
		s.WeakPairsScanned, s.WeakPointersBroken)
	fmt.Fprintf(&b, "pause: total %v\n", s.TotalPause)
	fmt.Fprintf(&b, "phases (total):")
	for i := Phase(0); i < NumPhases; i++ {
		fmt.Fprintf(&b, " %s %v", i, s.PhaseTotals[i])
	}
	return b.String()
}
