package heap

// Test-only exports for the external heap_test package.

// EnableMapRemsetOracle switches h to the retired map-based remembered
// set (remset_oracle.go), the sequential reference implementation the
// map-vs-sharded lockstep oracle compares the sharded set against.
func EnableMapRemsetOracle(h *Heap) { h.enableMapRemsetOracle() }

// UsesMapRemset reports whether the map-oracle remembered set is
// active on h.
func UsesMapRemset(h *Heap) bool { return h.dirtyMap != nil }

// ReservedSegments returns the number of table segments currently
// parked in mutator TLAB caches (reserved: neither free nor in use).
func ReservedSegments(h *Heap) int { return h.tab.ReservedCount() }

// AllocLockFree reports whether the allocation mutex is free — false
// means some path leaked it (every later taker would hang).
func AllocLockFree(h *Heap) bool {
	if !h.allocMu.TryLock() {
		return false
	}
	h.allocMu.Unlock()
	return true
}
