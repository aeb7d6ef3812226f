package heap

// Test-only exports for the external heap_test package.

// Test-only aliases of the deque capacity tuning constants.
const (
	DequeMinCap    = dequeMinCap
	DequeRetainCap = dequeRetainCap
)

// EnableMapRemsetOracle switches h to the retired map-based remembered
// set (remset_oracle.go), the sequential reference implementation the
// map-vs-sharded lockstep oracle compares the sharded set against.
func EnableMapRemsetOracle(h *Heap) { h.enableMapRemsetOracle() }

// UsesMapRemset reports whether the map-oracle remembered set is
// active on h.
func UsesMapRemset(h *Heap) bool { return h.dirtyMap != nil }

// AutoWorkerCount exposes the adaptive worker policy — the pure
// function of (live from-space segments, schedulable CPUs) — so tests
// can pin its thresholds independently of the host's GOMAXPROCS.
func AutoWorkerCount(liveSegs, procs int) int { return autoWorkerCount(liveSegs, procs) }

// WorkerDequeCaps returns the current ring capacity (in items) of each
// copier's sweep deque, indexed by copier id (0 for a deque no shared
// collection has used yet). The queue-memory regression test uses it
// to assert that over-grown rings shrink between collections.
func WorkerDequeCaps(h *Heap) []int {
	caps := make([]int, len(h.copiers))
	for i, c := range h.copiers {
		caps[i] = c.dq.capacity()
	}
	return caps
}

// WorkerDequePeaks returns each copier deque's lifetime peak ring
// capacity — evidence that a workload actually grew the rings, since
// over-grown rings are released before a collection returns.
func WorkerDequePeaks(h *Heap) []int {
	peaks := make([]int, len(h.copiers))
	for i, c := range h.copiers {
		peaks[i] = c.dq.peak
	}
	return peaks
}

// ReservedSegments returns the number of table segments currently
// parked in worker affinity caches (reserved: neither free nor in use).
func ReservedSegments(h *Heap) int { return h.tab.ReservedCount() }

// NewDeque returns a fresh deque plus its operations, letting the
// external test package drive the Chase–Lev protocol directly: push and
// pop are owner-only, steal may be called from any goroutine.
func NewDeque() (push func(uint64), pop func() (uint64, bool), steal func() (uint64, bool), capacity func() int, shrink func()) {
	d := &deque{}
	d.init()
	return d.push, d.pop, d.steal, d.capacity, d.shrink
}

// SetSliceWindowHook installs fn to run inside every mutator window of
// a sliced collection (world resumed, sweep work parked). Test-only:
// the sliced-collection suite uses it to run Verify between slices —
// the only moment invariant 10 is checkable — and to count windows.
func SetSliceWindowHook(h *Heap, fn func()) { h.sliceHook = fn }

// AllocLockFree reports whether the allocation mutex is free — false
// means some path leaked it (every later taker would hang).
func AllocLockFree(h *Heap) bool {
	if !h.allocMu.TryLock() {
		return false
	}
	h.allocMu.Unlock()
	return true
}
