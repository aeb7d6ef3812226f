package heap

// Test-only exports for the external heap_test package.

// EnableMapRemsetOracle switches h to the retired map-based remembered
// set (remset_oracle.go), the sequential reference implementation the
// map-vs-sharded lockstep oracle compares the sharded set against.
func EnableMapRemsetOracle(h *Heap) { h.enableMapRemsetOracle() }

// UsesMapRemset reports whether the map-oracle remembered set is
// active on h.
func UsesMapRemset(h *Heap) bool { return h.dirtyMap != nil }
