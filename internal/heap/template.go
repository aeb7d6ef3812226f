package heap

import (
	"fmt"

	"repro/internal/obj"
	"repro/internal/seg"
)

// Heap templates: the in-memory counterpart of SaveImage/LoadImage for
// the fork-style "boot once, clone many" pattern. CaptureTemplate
// snapshots a stopped heap — segments, root slots, protected lists,
// and the sharded remembered set — into an immutable Template, and
// CloneFromTemplate spawns a new heap from it in microseconds: the
// clone's segment table aliases the template's word arrays read-only
// and privatizes a segment only on its first write (segment-level
// copy-on-write; see seg.Table's cowBits). A template captured once
// from a prelude-loaded interpreter heap can therefore back thousands
// of short-lived session heaps without re-paying the prelude boot, the
// economics the multi-session server's Register path is built on.
//
// Immutability contract: after CaptureTemplate returns, the Template
// and everything it references is never written again — not by the
// donor heap (capture deep-copies every word) and not by clones (the
// copy-on-write bitmap forces a private copy before any store). A
// clone that frees a shared segment drops the alias without zeroing
// the template array (seg.Table.Free).
//
// The one mutable thing a template owns is its clones' segment pool
// (seg.Pool, internally locked): the word arrays clones retire pass
// through it to whichever clone needs storage next, so a parked clone
// holds arrays only for the segments it has in use.
type Template struct {
	cfg       Config
	stamp     uint64
	autoCount uint64
	segs      []seg.TemplateSeg
	rootVals  []obj.Value
	rootLive  []bool
	protected [][]ProtEntry
	dirty     []dirtyCell
	pool      *seg.Pool
}

// Config returns the configuration clones will be constructed with.
func (t *Template) Config() Config { return t.cfg }

// Segments returns the number of populated (in-use) segments in the
// template — the upper bound on copy-on-write faults a clone can take.
func (t *Template) Segments() int {
	n := 0
	for i := range t.segs {
		if t.segs[i].Words != nil {
			n++
		}
	}
	return n
}

// CaptureTemplate snapshots the heap into an immutable Template. The
// heap must not be mid-collection — a capture from a post-collect hook
// is an error, not a panic, because the caller can simply retry after
// the collection finishes.
// The heap is verified as part of the capture (clones skip verification — they are bit-for-bit
// the verified template), and the donor keeps running afterwards: the
// capture copies every word, sharing nothing with the donor.
//
// Callers wanting the paper's "stopped, collected heap" semantics
// (maximal sharing, empty nursery) should Collect(MaxGeneration())
// first; capture itself does not collect.
func (h *Heap) CaptureTemplate() (*Template, error) {
	if h.inCollect {
		return nil, fmt.Errorf("heap: CaptureTemplate during a collection")
	}
	if errs := h.Verify(); len(errs) > 0 {
		return nil, fmt.Errorf("heap: CaptureTemplate on unverifiable heap: %w", errs[0])
	}
	tpl := &Template{
		cfg:       h.cfg,
		stamp:     h.stamp,
		autoCount: h.autoCount,
		segs:      make([]seg.TemplateSeg, h.tab.Len()),
		protected: make([][]ProtEntry, len(h.protected)),
		pool:      &seg.Pool{},
	}
	for i := 0; i < h.tab.Len(); i++ {
		s := h.tab.Seg(i)
		if !s.InUse {
			continue // free slot: nil Words in the template
		}
		w := make([]uint64, seg.Words)
		copy(w, s.Words)
		tpl.segs[i] = seg.TemplateSeg{
			Words: w,
			Space: s.Space,
			Gen:   s.Gen,
			Cont:  s.Cont,
			Fill:  s.Fill,
			Stamp: s.Stamp,
		}
	}
	tpl.rootVals = make([]obj.Value, h.rootsLen)
	tpl.rootLive = make([]bool, h.rootsLen)
	for i := 0; i < h.rootsLen; i++ {
		c, o := h.rootSlot(i)
		tpl.rootVals[i] = c.vals[o]
		tpl.rootLive[i] = c.live[o]
	}
	for g, lst := range h.protected {
		if len(lst) > 0 {
			tpl.protected[g] = append([]ProtEntry(nil), lst...)
		}
	}
	if h.dirtyMap != nil {
		for addr, weak := range h.dirtyMap {
			tpl.dirty = append(tpl.dirty, dirtyCell{addr, weak})
		}
	} else {
		shards := h.rem.all()
		for i := range shards {
			tpl.dirty = append(tpl.dirty, shards[i].entries...)
		}
	}
	return tpl, nil
}

// CloneFromTemplate constructs a new heap from the template, sharing
// the template's segment word arrays copy-on-write. It returns the
// heap and fresh Root handles for every live captured root slot
// (indexed as in the donor; dead slots are nil), exactly like
// LoadImage. The clone is not re-verified — it is structurally
// identical to the heap verified at capture time.
func CloneFromTemplate(tpl *Template) (*Heap, []*Root, error) {
	return tpl.instantiate(true)
}

// instantiate builds a heap from the template's parts. shared selects
// copy-on-write aliasing of the word arrays (CloneFromTemplate) versus
// outright ownership (LoadImage, whose parsed arrays are freshly
// built and referenced nowhere else — and whose template, never
// captured, has no pool for the heap to join).
func (tpl *Template) instantiate(shared bool) (*Heap, []*Root, error) {
	h, err := New(tpl.cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("heap: template config: %w", err)
	}
	h.stamp = tpl.stamp
	h.autoCount = tpl.autoCount
	h.tab = seg.NewTableFromSegs(tpl.segs, shared, tpl.pool)
	// Rebuild the allocation chains in index order; cursors stay closed
	// (New left them at seg.None), so the clone's first allocation into
	// any (space, generation) opens a fresh segment rather than bumping
	// into a shared one.
	for i := range tpl.segs {
		ts := &tpl.segs[i]
		if ts.Words != nil {
			h.chains[ts.Space][ts.Gen] = append(h.chains[ts.Space][ts.Gen], i)
		}
	}
	handles := make([]*Root, len(tpl.rootVals))
	for i, v := range tpl.rootVals {
		h.addRootSlot()
		c, o := h.rootSlot(i)
		c.vals[o] = v
		c.live[o] = tpl.rootLive[i]
		if tpl.rootLive[i] {
			handles[i] = &Root{h: h, idx: i}
		} else {
			h.rootsFree = append(h.rootsFree, i)
		}
	}
	for g, lst := range tpl.protected {
		if len(lst) > 0 {
			h.protected[g] = append([]ProtEntry(nil), lst...)
		}
	}
	for _, c := range tpl.dirty {
		h.dirtyInsert(c.addr, c.weak)
	}
	return h, handles, nil
}

// SharedSegments returns the number of this heap's segments still
// aliasing a template's word arrays (zero for heaps not built by
// CloneFromTemplate, and for clones that have privatized everything).
func (h *Heap) SharedSegments() int { return h.tab.SharedCount() }

// COWCopies returns the cumulative number of segments this heap has
// privatized from its template by copy-on-write.
func (h *Heap) COWCopies() uint64 { return h.tab.COWCopies() }
