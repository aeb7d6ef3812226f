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
//  3. every strong old-to-young pointer lies in a segment marked at
//     least that young (when the dirty set is enabled);
//  4. so does every weak car that points to a strictly younger
//     generation;
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
//  8. outside a collection, the dirty list holds every marked segment
//     exactly once and nothing else, and no data segment is marked;
//  9. the segment table's dense arrays agree with slot state
//     (seg.Table.Check): a free slot — one on a free list, and on one
//     only — has a nil word entry, a zero info entry and a clean mark,
//     every slot
//     without words is on a free list, and the shared bit is set
//     exactly for the segments whose words are their template record's
//     array, as many as SharedCount;
//  10. no allocation cursor is stale: an open cursor (the heap's or
//     the copier's) caches the descriptor of the segment it names and
//     that segment's words, and the segment is in use, not shared with
//     a template (clones start with closed cursors), of the cursor's
//     space and generation, with Fill equal to the cursor's offset; the
//     copier's is open only while a collection is in flight;
//  11. outside a collection, every in-use segment is on exactly one
//     chain, the one its info entry's space and generation name, and
//     none is flagged from-space.
func (h *Heap) Verify() []error {
	var errs []error
	report := func(format string, args ...any) {
		if len(errs) < 50 {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}

	checkValue := func(where string, addr uint64, v obj.Value, genCheck bool) {
		ts, fault := h.checkValue(v)
		if fault != "" {
			report("%s @%d: %s", where, addr, fault)
			return
		}
		// Generational invariant: an old cell pointing young lies in a
		// segment marked at least that young.
		if v.IsPointer() && genCheck && h.cfg.UseDirtySet && !h.inCollect {
			ci := seg.SegIndexOf(addr)
			cellGen := h.tab.Info(ci).Gen()
			if ts.Gen() < cellGen && h.tab.Mark(ci).Gen() > ts.Gen() {
				report("%s @%d (gen %d) points to gen %d in a segment marked %s",
					where, addr, cellGen, ts.Gen(), markName(h.tab.Mark(ci)))
			}
		}
	}

	// checkRun validates the segment run of a large object: total words
	// starting at segment idx, and reports whether it is whole. Without
	// this a collector bug that frees or re-purposes a continuation
	// segment would be reported only as a crash of the per-word checks
	// (a free slot has no words) or, if the slot was reused, as
	// innocent-looking words of another segment.
	checkRun := func(idx, total int) (whole bool) {
		whole = true
		broken := func(format string, args ...any) {
			whole = false
			report(format, args...)
		}
		inf := h.tab.Info(idx)
		k := (total + seg.Words - 1) / seg.Words
		words := h.tab.Seg(idx).Fill
		for c := 1; c < k; c++ {
			ci := idx + c
			if ci >= h.tab.Len() {
				broken("segment %d: %d-word object runs past the end of the heap", idx, total)
				return
			}
			if !h.tab.InUse(ci) {
				broken("segment %d: continuation segment %d of large object is free", idx, ci)
				continue
			}
			cs, cinf := h.tab.Seg(ci), h.tab.Info(ci)
			switch {
			case !cs.Cont:
				broken("segment %d: segment %d inside large-object run not marked Cont", idx, ci)
			case cinf.Space() != inf.Space() || cinf.Gen() != inf.Gen():
				broken("segment %d: continuation segment %d is %v/gen%d, head is %v/gen%d",
					idx, ci, cinf.Space(), cinf.Gen(), inf.Space(), inf.Gen())
			}
			words += cs.Fill
		}
		if words != total {
			broken("segment %d: large object of %d words but run fills sum to %d", idx, total, words)
		}
		return
	}

	for idx := 0; idx < h.tab.Len(); idx++ {
		if !h.tab.InUse(idx) {
			continue
		}
		s := h.tab.Seg(idx)
		if s.Cont {
			continue
		}
		base := seg.BaseAddr(idx)
		switch h.tab.Info(idx).Space() {
		case seg.SpacePair:
			for off := 0; off+1 < s.Fill; off += 2 {
				checkValue("pair car", base+uint64(off), h.valueAt(base+uint64(off)), true)
				checkValue("pair cdr", base+uint64(off+1), h.valueAt(base+uint64(off+1)), true)
			}
		case seg.SpaceWeak:
			for off := 0; off+1 < s.Fill; off += 2 {
				checkValue("weak car", base+uint64(off), h.valueAt(base+uint64(off)), true)
				checkValue("weak cdr", base+uint64(off+1), h.valueAt(base+uint64(off+1)), true)
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
					checkValue(kind.String(), a, h.valueAt(a), true)
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
				checkValue("root", 0, v, false)
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
				pi := seg.SegIndexOf(part.v.Addr())
				if pi >= h.tab.Len() {
					report("protected[%d] %s: pointer past heap", gen, part.name)
					continue
				}
				if !h.tab.InUse(pi) {
					report("protected[%d] %s: dangling pointer", gen, part.name)
					continue
				}
				if g := h.tab.Info(pi).Gen(); g < gen {
					report("protected[%d] %s resides in younger generation %d", gen, part.name, g)
				}
			}
			if !e.Tconc.IsPair() {
				report("protected[%d]: tconc is not a pair", gen)
			}
		}
	}

	// The dirty list against the marks (invariant 8): a marked segment
	// missing from the list would never be scanned, one listed twice
	// would be scanned twice, and a marked data segment would have its
	// raw words read as values.
	if !h.inCollect {
		listed := make([]uint64, (h.tab.Len()+63)/64)
		for _, idx := range h.dirty {
			switch {
			case idx < 0 || idx >= h.tab.Len():
				report("dirty list holds segment %d of %d", idx, h.tab.Len())
			case listed[idx>>6]&(1<<(idx&63)) != 0:
				report("segment %d is on the dirty list twice", idx)
			default:
				listed[idx>>6] |= 1 << (idx & 63)
			}
		}
		for idx := 0; idx < h.tab.Len(); idx++ {
			if !h.tab.InUse(idx) {
				continue // a free slot's mark is seg.Table.Check's
			}
			on, m := listed[idx>>6]&(1<<(idx&63)) != 0, h.tab.Mark(idx)
			switch {
			case on && m == seg.Clean:
				report("clean segment %d is on the dirty list", idx)
			case !on && m != seg.Clean:
				report("segment %d is marked %s but not on the dirty list", idx, markName(m))
			case m != seg.Clean && h.tab.Info(idx).Space() == seg.SpaceData:
				report("data segment %d is marked %s", idx, markName(m))
			}
		}
	}

	// The dense arrays against slot state (invariant 9). A word array
	// on a free slot, or a shared bit that is not where the template's
	// arrays are, would let a store reach a freed array or a template.
	h.tab.Check(report)

	// Cursors (invariant 10): a stale one would bump-allocate into a
	// freed or re-purposed segment, or into a template's array.
	checkCursor := func(who string, c *cursor, sp, gen int, mayBeOpen bool) {
		s, idx := c.s, int(c.seg)
		switch {
		case s == nil && c.seg == seg.None && c.w == nil && c.off == seg.Words:
			// closed
		case !mayBeOpen || idx < 0 || idx >= h.tab.Len() || !h.tab.InUse(idx) || s != h.tab.Seg(idx) ||
			h.tab.Info(idx)&^seg.InfoFrom != seg.MakeInfo(seg.Space(sp), gen) || s.Fill != int(c.off):
			report("%s cursor (%v, gen %d) stale: open on segment %d at offset %d", who, seg.Space(sp), gen, c.seg, c.off)
		case c.w != h.tab.Words(idx):
			report("%s cursor (%v, gen %d) on segment %d caches words that are not the segment's", who, seg.Space(sp), gen, c.seg)
		}
	}
	for sp := range h.cur {
		for gen := range h.cur[sp] {
			checkCursor("heap", &h.cur[sp][gen], sp, gen, true)
		}
		checkCursor("copier", &h.cp.cur[sp], sp, h.gcTarget, h.inCollect)
	}

	// Chains and from-space bits (invariant 11). A segment on a chain
	// its info entry does not name would be collected with the wrong
	// generation; one left flagged from-space would make the next
	// collection copy objects out of a segment it does not free, leaving
	// forwarding words in live objects. During a collection from-space
	// is off the chains.
	if !h.inCollect {
		onChain := make([]uint64, (h.tab.Len()+63)/64)
		for sp := range h.chains {
			for gen, chain := range h.chains[sp] {
				for _, idx := range chain {
					switch {
					case idx < 0 || idx >= h.tab.Len():
						report("%v gen %d chain holds segment %d of %d", seg.Space(sp), gen, idx, h.tab.Len())
					case !h.tab.InUse(idx):
						report("segment %d on the %v gen %d chain is free", idx, seg.Space(sp), gen)
					case onChain[idx>>6]&(1<<(idx&63)) != 0:
						report("segment %d is on two chains", idx)
					default:
						onChain[idx>>6] |= 1 << (idx & 63)
						if inf := h.tab.Info(idx); inf.Space() != seg.Space(sp) || inf.Gen() != gen {
							report("segment %d on the %v gen %d chain is tagged %v gen %d",
								idx, seg.Space(sp), gen, inf.Space(), inf.Gen())
						}
					}
				}
			}
		}
		for idx := 0; idx < h.tab.Len(); idx++ {
			if !h.tab.InUse(idx) {
				continue
			}
			if onChain[idx>>6]&(1<<(idx&63)) == 0 {
				report("in-use segment %d is on no chain", idx)
			}
			if h.tab.Info(idx)&seg.InfoFrom != 0 {
				report("segment %d flagged from-space outside a collection", idx)
			}
		}
	}
	return errs
}

// markName renders a mark for Verify's reports.
func markName(m seg.Mark) string {
	if m == seg.Clean {
		return "clean"
	}
	return fmt.Sprintf("gen %d", m.Gen())
}

// checkValue is Verify's check of one value: "" for an immediate or
// for a pointer into an in-use segment of a space its kind of pointer
// may address, with an object header at an object pointer's target;
// otherwise what is wrong. ts is a pointer's target segment's info.
func (h *Heap) checkValue(v obj.Value) (ts seg.Info, fault string) {
	switch v.Tag() {
	case obj.TagFixnum, obj.TagImm:
		return 0, ""
	case obj.TagHeader:
		return 0, "header word used as value"
	case obj.TagFwd:
		return 0, "forwarding word outside collection"
	}
	ta := v.Addr()
	ti := seg.SegIndexOf(ta)
	if ti >= h.tab.Len() {
		return 0, fmt.Sprintf("pointer past end of heap (%d)", ta)
	}
	if !h.tab.InUse(ti) {
		return 0, fmt.Sprintf("dangling pointer into freed segment %d", ti)
	}
	ts = h.tab.Info(ti)
	switch sp := ts.Space(); {
	case v.IsPair() && sp != seg.SpacePair && sp != seg.SpaceWeak:
		return 0, fmt.Sprintf("pair pointer into %v space", sp)
	case v.IsPair() && seg.Offset(ta)%2 != 0:
		return 0, "misaligned pair pointer"
	case v.IsObj() && sp != seg.SpaceObj && sp != seg.SpaceData:
		return 0, fmt.Sprintf("object pointer into %v space", sp)
	case v.IsObj() && !obj.IsHeader(h.word(ta)):
		return 0, "object pointer to non-header word"
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
