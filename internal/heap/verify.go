package heap

import (
	"fmt"

	"repro/internal/obj"
	"repro/internal/seg"
)

// Verify walks the entire heap and checks the structural and
// generational invariants the collector relies on. It returns the
// violations found (nil when the heap is sound). The stress tests run
// it after every collection; it is also exported so embedders can
// check heap health in their own tests.
//
// Invariants checked:
//
//  1. every allocated cell holds a well-formed value: an immediate or
//     a pointer into an in-use segment of a compatible space, with an
//     object header at the target for object pointers;
//  2. no forwarding words survive outside a collection;
//  3. no strong old-to-young pointer exists outside the dirty set
//     (when the dirty set is enabled);
//  4. no weak car points to a strictly younger generation unless its
//     cell is in the dirty set;
//  5. protected-list entries index generations consistently: an entry
//     in generation i's list guards an object residing in generation
//     >= i, and its representative and tconc likewise;
//  6. root slots hold well-formed values;
//  7. large objects own well-formed segment runs: every continuation
//     segment exists, is in use and marked Cont, matches the head
//     segment's space and generation, and the run's fills sum to the
//     object's extent. Payload words are validated across the whole
//     run (addresses are linear through contiguous segments), so a
//     corrupted word in a continuation segment is reported just like
//     one in the head segment;
//  8. the sharded remembered set is internally consistent: every
//     shard's entry slice and dedup index agree (same size, index
//     positions match, no duplicate addresses), every entry's address
//     hashes to the shard holding it, and every entry's segment
//     exists. Shard-local state leaking across shards or collections
//     would show up here;
//  9. copy-on-write state is consistent for template clones: every
//     segment still marked shared (seg.Table.IsShared) is in use with
//     a full-length word array, and the count of shared bits matches
//     SharedCount;
//  10. no allocation cursor is stale: an open cursor (the heap's or
//     the copier's) caches the table entry of the segment it names and
//     that segment's Words, and the segment is in use, not shared with
//     a template (clones start with closed cursors), of the cursor's
//     space and generation, with Fill equal to the cursor's offset; the
//     copier's is open only while a collection is in flight;
//  11. no segment is flagged from-space outside a collection.
func (h *Heap) Verify() []error {
	var errs []error
	report := func(format string, args ...any) {
		if len(errs) < 50 {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}

	checkValue := func(where string, addr uint64, v obj.Value, weakCar, genCheck bool) {
		ts, fault := h.checkValue(v)
		if fault != "" {
			report("%s @%d: %s", where, addr, fault)
			return
		}
		// Generational invariant: old cell pointing young must be
		// remembered (or be a deferred weak car, also remembered).
		if ts != nil && genCheck && h.cfg.UseDirtySet && !h.inCollect {
			cellGen := h.tab.SegOf(addr).Gen
			if ts.Gen < cellGen {
				if got, ok := h.dirtyLookup(addr); !ok || (weakCar && !got) {
					report("%s @%d (gen %d) points to gen %d without a dirty entry",
						where, addr, cellGen, ts.Gen)
				}
			}
		}
	}

	// checkRun validates the segment run of a large object: total words
	// starting at segment idx, and reports whether it is whole. Without
	// this a collector bug that frees or re-purposes a continuation
	// segment would escape notice — the zeroed words of a freed segment
	// read back as innocent fixnum 0s, so the per-word checks alone
	// cannot catch it.
	checkRun := func(idx, total int) (whole bool) {
		whole = true
		broken := func(format string, args ...any) {
			whole = false
			report(format, args...)
		}
		s := h.tab.Seg(idx)
		k := (total + seg.Words - 1) / seg.Words
		words := s.Fill
		for c := 1; c < k; c++ {
			ci := idx + c
			if ci >= h.tab.Len() {
				broken("segment %d: %d-word object runs past the end of the heap", idx, total)
				return
			}
			cs := h.tab.Seg(ci)
			switch {
			case !cs.InUse:
				broken("segment %d: continuation segment %d of large object is free", idx, ci)
			case !cs.Cont:
				broken("segment %d: segment %d inside large-object run not marked Cont", idx, ci)
			case cs.Space != s.Space || cs.Gen != s.Gen:
				broken("segment %d: continuation segment %d is %v/gen%d, head is %v/gen%d",
					idx, ci, cs.Space, cs.Gen, s.Space, s.Gen)
			}
			words += cs.Fill
		}
		if words != total {
			broken("segment %d: large object of %d words but run fills sum to %d", idx, total, words)
		}
		return
	}

	for idx := 0; idx < h.tab.Len(); idx++ {
		s := h.tab.Seg(idx)
		if !s.InUse || s.Cont {
			continue
		}
		base := seg.BaseAddr(idx)
		switch s.Space {
		case seg.SpacePair:
			for off := 0; off+1 < s.Fill; off += 2 {
				checkValue("pair car", base+uint64(off), h.valueAt(base+uint64(off)), false, true)
				checkValue("pair cdr", base+uint64(off+1), h.valueAt(base+uint64(off+1)), false, true)
			}
		case seg.SpaceWeak:
			for off := 0; off+1 < s.Fill; off += 2 {
				checkValue("weak car", base+uint64(off), h.valueAt(base+uint64(off)), true, true)
				checkValue("weak cdr", base+uint64(off+1), h.valueAt(base+uint64(off+1)), false, true)
			}
		case seg.SpaceObj:
			off := 0
			for off < s.Fill {
				w := h.word(base + uint64(off))
				if !obj.IsHeader(w) {
					report("obj segment %d: missing header at offset %d", idx, off)
					break
				}
				kind := obj.HeaderKind(w)
				if kind >= obj.NumKinds {
					report("obj segment %d: bad kind %d at offset %d", idx, kind, off)
					break
				}
				if !kind.HasPointers() {
					report("obj segment %d: data kind %v in pointer space", idx, kind)
				}
				n := obj.PayloadWords(kind, obj.HeaderLength(w))
				if off+1+n > seg.Words && !checkRun(idx, off+1+n) {
					break // a broken run's payload may lie in free segments
				}
				// Payload addresses are linear across a large object's
				// continuation segments, so this walk validates the full
				// multi-segment run, not just the head segment's words.
				for i := 1; i <= n; i++ {
					a := base + uint64(off+i)
					checkValue(kind.String(), a, h.valueAt(a), false, true)
				}
				off += 1 + n
				if off > seg.Words {
					break // rest of the run was validated above
				}
			}
		case seg.SpaceData:
			off := 0
			for off < s.Fill {
				w := h.word(base + uint64(off))
				if !obj.IsHeader(w) {
					report("data segment %d: missing header at offset %d", idx, off)
					break
				}
				kind := obj.HeaderKind(w)
				if kind.HasPointers() {
					report("data segment %d: pointer kind %v in data space", idx, kind)
				}
				n := obj.PayloadWords(kind, obj.HeaderLength(w))
				if off+1+n > seg.Words {
					checkRun(idx, off+1+n)
				}
				off += 1 + n
				if off > seg.Words {
					break
				}
			}
		}
	}

	// Roots.
	for i := 0; i < h.rootsLen; i++ {
		c, o := h.rootSlot(i)
		if c.live[o] {
			if v := c.vals[o]; v.IsPointer() {
				checkValue("root", 0, v, false, false)
			}
		}
	}

	// Protected lists.
	for gen, lst := range h.protected {
		for _, e := range lst {
			for _, part := range []struct {
				name string
				v    obj.Value
			}{{"obj", e.Obj}, {"rep", e.Rep}, {"tconc", e.Tconc}} {
				if !part.v.IsPointer() {
					continue
				}
				if seg.SegIndexOf(part.v.Addr()) >= h.tab.Len() {
					report("protected[%d] %s: pointer past heap", gen, part.name)
					continue
				}
				ts := h.tab.SegOf(part.v.Addr())
				if !ts.InUse {
					report("protected[%d] %s: dangling pointer", gen, part.name)
					continue
				}
				if ts.Gen < gen {
					report("protected[%d] %s resides in younger generation %d", gen, part.name, ts.Gen)
				}
			}
			if !e.Tconc.IsPair() {
				report("protected[%d]: tconc is not a pair", gen)
			}
		}
	}

	// Remembered-set internal consistency (invariant 8). Only the
	// sharded representation has structure to check; the map oracle is
	// consistent by construction.
	if h.dirtyMap == nil {
		shards := h.rem.all()
		for si := range shards {
			sh := &shards[si]
			if len(sh.entries) != len(sh.index) {
				report("remset shard %d: %d entries but %d index keys",
					si, len(sh.entries), len(sh.index))
			}
			for i, c := range sh.entries {
				if remShardOf(c.addr) != si {
					report("remset shard %d: entry @%d belongs to shard %d",
						si, c.addr, remShardOf(c.addr))
				}
				if j, ok := sh.index[c.addr]; !ok {
					report("remset shard %d: entry @%d missing from index", si, c.addr)
				} else if int(j) != i {
					report("remset shard %d: entry @%d at position %d but indexed %d",
						si, c.addr, i, j)
				}
				if seg.SegIndexOf(c.addr) >= h.tab.Len() {
					report("remset shard %d: entry @%d past end of heap", si, c.addr)
				}
			}
		}
	}

	// Copy-on-write consistency (invariant 9). A shared bit on a free
	// or truncated segment means Free or privatize lost track
	// of the template aliasing, and a mismatched count would let the
	// hot-path nil test retire the bitmap too early or too late.
	if n := h.tab.SharedCount(); n > 0 {
		bits := 0
		for idx := 0; idx < h.tab.Len(); idx++ {
			if !h.tab.IsShared(idx) {
				continue
			}
			bits++
			s := h.tab.Seg(idx)
			if !s.InUse {
				report("cow: shared bit set on free segment %d", idx)
			} else if len(s.Words) != seg.Words {
				report("cow: shared segment %d has %d words", idx, len(s.Words))
			}
		}
		if bits != n {
			report("cow: %d shared bits set but SharedCount is %d", bits, n)
		}
	}

	// Cursors (invariant 10): a stale one would bump-allocate into a
	// freed or re-purposed segment, or into a template's array.
	checkCursor := func(who string, c *cursor, sp, gen int, mayBeOpen bool) {
		s := c.s
		switch {
		case s == nil && c.seg == seg.None && c.w == nil && c.off == seg.Words:
			// closed
		case !mayBeOpen || c.seg < 0 || int(c.seg) >= h.tab.Len() || s != h.tab.Seg(int(c.seg)) ||
			!s.InUse || h.tab.IsShared(int(c.seg)) || int(s.Space) != sp || s.Gen != gen || s.Fill != int(c.off):
			report("%s cursor (%v, gen %d) stale: open on segment %d at offset %d", who, seg.Space(sp), gen, c.seg, c.off)
		case len(s.Words) != seg.Words || c.w != (*[seg.Words]uint64)(s.Words):
			report("%s cursor (%v, gen %d) on segment %d caches words that are not the segment's", who, seg.Space(sp), gen, c.seg)
		}
	}
	for sp := range h.cur {
		for gen := range h.cur[sp] {
			checkCursor("heap", &h.cur[sp][gen], sp, gen, true)
		}
		checkCursor("copier", &h.cp.cur[sp], sp, h.gcTarget, h.inCollect)
	}

	// From-space flags (invariant 11): one left set would make the next
	// collection copy objects out of a segment it does not free, leaving
	// forwarding words in live objects.
	if !h.inCollect {
		for idx, f := range h.fromSpace {
			if f {
				report("segment %d flagged from-space outside a collection", idx)
			}
		}
	}
	return errs
}

// checkValue is Verify's check of one value: "" for an immediate or
// for a pointer into an in-use segment of a space its kind of pointer
// may address, with an object header at an object pointer's target;
// otherwise what is wrong. ts is a pointer's target segment.
func (h *Heap) checkValue(v obj.Value) (ts *seg.Segment, fault string) {
	switch v.Tag() {
	case obj.TagFixnum, obj.TagImm:
		return nil, ""
	case obj.TagHeader:
		return nil, "header word used as value"
	case obj.TagFwd:
		return nil, "forwarding word outside collection"
	}
	ta := v.Addr()
	if seg.SegIndexOf(ta) >= h.tab.Len() {
		return nil, fmt.Sprintf("pointer past end of heap (%d)", ta)
	}
	ts = h.tab.SegOf(ta)
	switch {
	case !ts.InUse:
		return nil, fmt.Sprintf("dangling pointer into freed segment %d", seg.SegIndexOf(ta))
	case v.IsPair() && ts.Space != seg.SpacePair && ts.Space != seg.SpaceWeak:
		return nil, fmt.Sprintf("pair pointer into %v space", ts.Space)
	case v.IsPair() && seg.Offset(ta)%2 != 0:
		return nil, "misaligned pair pointer"
	case v.IsObj() && ts.Space != seg.SpaceObj && ts.Space != seg.SpaceData:
		return nil, fmt.Sprintf("object pointer into %v space", ts.Space)
	case v.IsObj() && !obj.IsHeader(h.word(ta)):
		return nil, "object pointer to non-header word"
	}
	return ts, ""
}

// CheckValue applies Verify's check of one value to v: nil for an
// immediate or a well-formed pointer into this heap, else what is
// wrong. Loaders check values that reach the heap from outside it with
// it (scheme.LoadMachineImage's symbol table).
func (h *Heap) CheckValue(v obj.Value) error {
	if _, fault := h.checkValue(v); fault != "" {
		return fmt.Errorf("heap: %s", fault)
	}
	return nil
}

// MustVerify panics on the first invariant violation (test helper).
func (h *Heap) MustVerify() {
	if errs := h.Verify(); len(errs) > 0 {
		panic(fmt.Sprintf("heap: verification failed: %v (and %d more)", errs[0], len(errs)-1))
	}
}
