package heap

import (
	"repro/internal/obj"
	"repro/internal/seg"
)

// This file implements the remembered set: the data structure behind
// the write barrier (writeCell) and the collector's dirty-scan phase.
// The paper's generational collector depends on it to find old-to-young
// pointers without scanning older generations (§4), and keeps it beside
// the segment information table. So does this one: it is one byte per
// segment, the segment's mark in seg.Table (seg.Mark), plus the list of
// the segments whose mark is not clean.
//
// The mark. A segment's mark is the youngest generation its words may
// point into, or clean. The barrier lowers it on every store of a
// pointer into a younger generation; the dirty scan of a collection of
// generations 0..g scans exactly the listed segments marked g or
// younger, and re-marks each with the youngest generation it still
// points into. A segment marked older than g points only into
// generations the collection does not move, so it is not read at all:
// a generation-0 collection passes over the segments whose young
// referents were promoted by earlier collections until their own
// generation is collected.
//
// The list. h.dirty holds every marked segment once, appended when its
// mark leaves clean; a scanned segment that ends clean leaves it, and
// so does a collected one (its copies are swept like any copy, and
// freeing it clears its mark). Verify invariant 8 checks the list
// against the marks.
//
// Weak cars need no flag of their own: the space bits say which words
// of a segment are weak cars. The scan hands a weak car that points
// into from-space to the weak pass, which fixes it and lowers the mark
// again if it still points young.

// remember lowers segment idx's mark to generation gen, listing the
// segment if that makes it dirty.
func (h *Heap) remember(idx, gen int) {
	if h.tab.LowerMark(idx, gen) {
		h.dirty = append(h.dirty, idx)
	}
}

// dirtyPhase scans the dirty segments a collection of 0..g must see —
// those marked g or younger and not themselves collected — and compacts
// the list in place: a collected segment leaves it, and so does a
// scanned one that ends clean. Nothing is listed during the loop: the
// copies land in the target generation, whose words point only into it
// or older ones.
func (c *copier) dirtyPhase() {
	h := c.h
	tab, g := h.tab, h.gcGen
	keep := 0
	for _, idx := range h.dirty {
		inf := tab.Info(idx)
		if inf&seg.InfoFrom != 0 {
			continue
		}
		if tab.Mark(idx).Gen() <= g {
			young := c.rescan(idx, inf)
			if young >= inf.Gen() {
				tab.SetMark(idx, seg.Clean)
				continue
			}
			tab.SetMark(idx, seg.MarkOf(young))
		}
		h.dirty[keep] = idx
		keep++
	}
	h.dirty = h.dirty[:keep]
}

// rescan forwards in place every from-space referent of the dirty
// segment idx, whose info is inf, and returns the youngest generation
// its words then point into, or its own generation when none is
// younger. Headers are never pointer-tagged, so every word of a pair or
// object segment up to its Fill — a large object's continuation
// included — reads as a Value. A weak car pointing into from-space is
// left to the weak pass (pendWeak), which re-marks the segment itself.
//
// The words are read in place; a segment aliasing a template array is
// privatized only when a store is due. The generation reads go to the
// table's info array, taken again after each copy, which can grow the
// table (seg.Table.Infos).
func (c *copier) rescan(idx int, inf seg.Info) int {
	h := c.h
	tab := h.tab
	n := tab.Seg(idx).Fill
	w := tab.Words(idx)[:n]
	weak := inf.Space() == seg.SpaceWeak
	young := inf.Gen()
	info := tab.Infos()
	for i, x := range w {
		v := obj.Value(x)
		if !v.IsPointer() {
			continue
		}
		ri := info[seg.SegIndexOf(v.Addr())]
		if ri&seg.InfoFrom != 0 {
			if weak && i&1 == 0 {
				c.pendWeak = append(c.pendWeak, seg.BaseAddr(idx)+uint64(i))
				continue
			}
			v = c.copyOut(v, true)
			if inf&seg.InfoShared != 0 {
				w, inf = tab.Writable(idx)[:n], inf&^seg.InfoShared
			}
			w[i] = uint64(v)
			info = tab.Infos()
			ri = info[seg.SegIndexOf(v.Addr())]
		}
		young = min(young, ri.Gen())
	}
	h.Stats.DirtyCellsScanned += uint64(n)
	return young
}

// DirtyCount returns the number of dirty segments: those whose mark is
// not clean, each counted once however many of its words were stored
// into. It is valid at any time, including from post-collect hooks,
// where it counts the segments the *next* collection's dirty scan
// starts from (the scan's re-marks and the weak pass's are complete
// before hooks run). The contract is pinned down by
// TestDirtyCountContract.
func (h *Heap) DirtyCount() int { return len(h.dirty) }

// DirtyByGen returns the dirty segments counted by mark: element g is
// the number of segments whose youngest referent lies in generation g,
// which every collection of g or an older generation scans and a
// younger one passes over. The elements sum to DirtyCount. It
// allocates; it is for reporting (the Census and the gc-remset-stats
// Scheme primitive), not the hot path.
func (h *Heap) DirtyByGen() []int {
	out := make([]int, h.cfg.Generations)
	for _, idx := range h.dirty {
		out[min(h.tab.Mark(idx).Gen(), len(out)-1)]++
	}
	return out
}
