package heap

// This file keeps the retired map-based remembered set alive as a
// sequential correctness oracle for the sharded set (remset.go). The
// representations are meant to be observably identical — same dedup
// and sticky-weak semantics in the barrier, same retirement decisions
// in the dirty scan — and the map version is simple enough to trust by
// inspection, so the lockstep oracle test (TestRemsetMapOracle) runs
// the same mutation trace against both and compares surviving object
// graphs, guardian/weak outcomes, and DirtyCount after every
// collection. The mode is test-only: it is enabled through an
// unexported switch (exported to the test package in export_test.go).

// enableMapRemsetOracle switches the heap to the map-based remembered
// set. It must be called on a heap whose remembered set is still
// empty; the switch is one-way.
func (h *Heap) enableMapRemsetOracle() {
	h.check(!h.inCollect, "enableMapRemsetOracle during a collection")
	h.check(h.rem.count() == 0, "enableMapRemsetOracle: remembered set already populated")
	h.dirtyMap = make(map[uint64]bool)
}

// scanDirtyMap is the dirty scan over the map representation — the
// pre-sharding algorithm, retained verbatim: snapshot the map (it is
// mutated while scanning), then drop collected entries, defer weak
// cars, and forward strong cells in place, retiring entries that no
// longer point to a younger generation. Unlike the sharded scan it
// allocates (the snapshot slice); the oracle configuration is not
// subject to the zero-alloc steady-state guarantee.
func (h *Heap) scanDirtyMap(g int) {
	if len(h.dirtyMap) == 0 {
		return
	}
	c := &h.cp
	scratch := make([]dirtyCell, 0, len(h.dirtyMap))
	for addr, weak := range h.dirtyMap {
		scratch = append(scratch, dirtyCell{addr, weak})
	}
	for _, d := range scratch {
		s := h.tab.SegOf(d.addr)
		if !s.InUse || s.Gen <= g {
			delete(h.dirtyMap, d.addr)
			continue
		}
		h.Stats.DirtyCellsScanned++
		if d.weak {
			delete(h.dirtyMap, d.addr)
			c.pendWeak = append(c.pendWeak, d.addr)
			continue
		}
		v := h.valueAt(d.addr)
		nv := c.forward(v)
		h.setWord(d.addr, uint64(nv))
		if !nv.IsPointer() || h.tab.SegOf(nv.Addr()).Gen >= s.Gen {
			delete(h.dirtyMap, d.addr)
		}
	}
}
