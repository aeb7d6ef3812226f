package heap

import (
	"repro/internal/obj"
	"repro/internal/seg"
)

// This file implements the sharded remembered set: the data structure
// behind the write barrier (writeCell/writeGC) and the collector's
// dirty-scan phase. The paper's generational collector depends on the
// remembered set to find old-to-young pointers without scanning older
// generations (§4). Sharding it by segment index gives the dirty scan
// segment-level locality and the report a per-shard breakdown.
//
// Representation. RemShards shards (a power of two), each holding an
// append-only slice of dirty-cell entries plus a dedup index mapping a
// cell address to its position in the slice. A cell address belongs to
// the shard of its segment (remShardOf), so all entries for one
// segment land in one shard and the mutator's barrier cost is one
// shard-local map probe. The entries slice and the index are kept
// exactly consistent (Verify invariant 8): len(entries) == len(index),
// entries hold distinct addresses, and index[addr] is the entry's
// position. The weak flag marks weak-car cells, whose referents must
// be handled by the weak-pair pass rather than traced.
//
// Retirement. Entries are dropped lazily, during the dirty scan of a
// collection: cells whose segment was collected, cells that no longer
// hold a pointer into a younger generation, and weak cells (deferred
// to the weak pass, which re-inserts the ones still pointing young).
// Between collections the set can therefore contain stale entries —
// cells later overwritten with immediates or old pointers — which is
// harmless: the invariant is that every *live* old-to-young pointer
// has an entry, not the converse.

const (
	// remShardBits picks the shard count, 32. The count is part of the
	// trace schema (DirtyShardCells) and of Census.RemSetShards.
	remShardBits = 5
	// RemShards is the number of remembered-set shards (a power of
	// two). Per-shard figures in CollectionReport.ShardDirty, the trace
	// schema, and Census.RemSetShards are indexed 0..RemShards-1.
	RemShards = 1 << remShardBits
)

// remShardOf maps a cell address to its shard: shards are keyed by
// segment index, so one segment's cells never straddle shards and a
// scan of a shard has segment-level locality.
func remShardOf(addr uint64) int {
	return seg.SegIndexOf(addr) & (RemShards - 1)
}

// remShard is one shard: the entry slice plus its dedup index. The
// index is allocated lazily on the shard's first insert.
type remShard struct {
	entries []dirtyCell
	index   map[uint64]int32
}

// remSet is the sharded remembered set. The zero value is ready to
// use. The shard array is allocated on the first insert, so a heap
// whose barrier never records a cell — a standing server session that
// stores no old-to-young pointer — carries none; every reader treats
// a nil array as an empty set.
type remSet struct {
	shards *[RemShards]remShard
}

// all returns the shards, or nil before the first insert.
func (r *remSet) all() []remShard {
	if r.shards == nil {
		return nil
	}
	return r.shards[:]
}

// insert records addr as a remembered cell, deduplicating against the
// shard's index. The weak flag is sticky: a cell once recorded as a
// weak car stays weak (weak-car cells are only ever written through
// the weak-car barrier, so the flag never needs to clear).
func (r *remSet) insert(addr uint64, weak bool) {
	if r.shards == nil {
		r.shards = new([RemShards]remShard)
	}
	sh := &r.shards[remShardOf(addr)]
	if sh.index == nil {
		sh.index = make(map[uint64]int32)
	}
	if i, ok := sh.index[addr]; ok {
		if weak {
			sh.entries[i].weak = true
		}
		return
	}
	sh.index[addr] = int32(len(sh.entries))
	sh.entries = append(sh.entries, dirtyCell{addr, weak})
}

// lookup reports whether addr is remembered and whether its entry is
// marked weak.
func (r *remSet) lookup(addr uint64) (weak, ok bool) {
	if r.shards == nil {
		return false, false
	}
	sh := &r.shards[remShardOf(addr)]
	i, ok := sh.index[addr]
	if !ok {
		return false, false
	}
	return sh.entries[i].weak, true
}

// count returns the deduplicated entry count across all shards.
func (r *remSet) count() int {
	n := 0
	for _, sh := range r.all() {
		n += len(sh.entries)
	}
	return n
}

// scanRemShard processes one shard against a collection of
// generations 0..g, compacting the shard in place: stale entries
// (collected or retired cells) are dropped, weak cells are deferred to
// the copier's pendWeak list for the weak pass, and strong cells are
// forwarded with the cell updated in place. Entries that still hold an
// old-to-young pointer afterwards are kept, with the dedup index
// rewritten to the compacted positions. It returns the number of
// live remembered cells examined (the DirtyCellsScanned contribution).
//
// The generation reads go to the table's info array, taken once for
// the shard and again after each forward that copies, which can grow
// the table and move the array (seg.Table.Infos).
func (c *copier) scanRemShard(sh *remShard, g int) (scanned uint64) {
	h := c.h
	tab := h.tab
	info := tab.Infos()
	live := sh.entries[:0]
	for _, e := range sh.entries {
		idx := seg.SegIndexOf(e.addr)
		gen := info[idx].Gen()
		if gen <= g {
			// Collected (or defensively: freed, its info zero) cell —
			// the copy, if any, is swept normally.
			delete(sh.index, e.addr)
			continue
		}
		scanned++
		if e.weak {
			// Defer to the weak pass; it re-inserts the cell if it
			// still points to a younger generation afterwards.
			delete(sh.index, e.addr)
			c.pendWeak = append(c.pendWeak, e.addr)
			continue
		}
		cell := &tab.Writable(idx)[seg.Offset(e.addr)]
		nv := obj.Value(*cell)
		if nv.IsPointer() && info[seg.SegIndexOf(nv.Addr())]&seg.InfoFrom != 0 {
			nv = c.copyOut(nv, true)
			*cell = uint64(nv)
			info = tab.Infos()
		}
		if !nv.IsPointer() || info[seg.SegIndexOf(nv.Addr())].Gen() >= gen {
			delete(sh.index, e.addr)
			continue
		}
		sh.index[e.addr] = int32(len(live))
		live = append(live, dirtyCell{e.addr, false})
	}
	sh.entries = live
	if len(live) == 0 {
		// A Go map never shrinks: an emptied shard gives its index and
		// entry array back, and the next insert allocates them afresh.
		sh.entries, sh.index = nil, nil
	}
	return scanned
}

// dirtyPhase processes the remembered set: cells in generations older
// than those collected that may hold pointers into them. Strong cells
// are forwarded in place; weak car cells are deferred to the weak-pair
// pass (the copier's pendWeak list). Entries whose segments are being
// collected are dropped (the copies are swept normally), as are entries
// that no longer point to a younger generation. Each shard is scanned
// with in-place compaction (scanRemShard), so steady-state collections
// do not allocate here (asserted by TestCollectSteadyStateAllocs). The
// map-based test oracle takes its own path in remset_oracle.go.
func (c *copier) dirtyPhase() {
	h := c.h
	if h.dirtyMap != nil {
		h.scanDirtyMap(h.gcGen)
		return
	}
	shards := h.rem.all()
	for k := range shards {
		n := c.scanRemShard(&shards[k], h.gcGen)
		h.report.ShardDirty[k] = n
		h.Stats.DirtyCellsScanned += n
	}
}

// RemSetShardSizes returns the deduplicated remembered-set size of
// every shard, indexed by shard number. The sum of the sizes equals
// DirtyCount. It allocates; intended for reporting (the Census and
// the gc-remset-stats Scheme primitive), not the hot path. In the
// map-oracle configuration (which has no shards) it returns nil.
func (h *Heap) RemSetShardSizes() []int {
	if h.dirtyMap != nil {
		return nil
	}
	out := make([]int, RemShards)
	for i, sh := range h.rem.all() {
		out[i] = len(sh.entries)
	}
	return out
}
