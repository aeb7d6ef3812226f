package heap

import (
	"fmt"
	"strings"

	"repro/internal/obj"
	"repro/internal/seg"
)

// CensusCell aggregates residency for one (space, generation) bucket.
type CensusCell struct {
	Segments int    // in-use segments (continuations of large objects included)
	Words    uint64 // allocated words (sum of segment fills)
	Objects  uint64 // object starts: pairs, or header-prefixed objects
}

func (c *CensusCell) add(o CensusCell) {
	c.Segments += o.Segments
	c.Words += o.Words
	c.Objects += o.Objects
}

// Census is a point-in-time residency breakdown of the heap: live
// words, objects, and segments per space × generation, computed by
// walking the segment table. It complements Stats (which accumulates
// collector work) with a structural view of what survived.
type Census struct {
	// BySpaceGen is indexed [space][generation].
	BySpaceGen [seg.NumSpaces][]CensusCell
	// DirtyByGen is the remembered set at census time: the dirty
	// segments counted by mark, as Heap.DirtyByGen returns them.
	// Element g counts the segments whose youngest referent lies in
	// generation g; the elements sum to DirtyCount.
	DirtyByGen []int
}

// Census walks the segment table and returns the heap's residency
// breakdown. It is read-only and may be called at any time outside a
// collection (post-collect hooks included).
func (h *Heap) Census() Census {
	var c Census
	c.DirtyByGen = h.DirtyByGen()
	for sp := range c.BySpaceGen {
		c.BySpaceGen[sp] = make([]CensusCell, h.cfg.Generations)
	}
	for idx := 0; idx < h.tab.Len(); idx++ {
		if !h.tab.InUse(idx) {
			continue
		}
		s, inf := h.tab.Seg(idx), h.tab.Info(idx)
		gen := inf.Gen()
		if gen >= h.cfg.Generations {
			continue
		}
		cell := &c.BySpaceGen[inf.Space()][gen]
		cell.Segments++
		cell.Words += uint64(s.Fill)
		if s.Cont {
			continue // object counted at its start segment
		}
		base := seg.BaseAddr(idx)
		switch inf.Space() {
		case seg.SpacePair, seg.SpaceWeak:
			cell.Objects += uint64(s.Fill / 2)
		case seg.SpaceObj, seg.SpaceData:
			off := 0
			for off < s.Fill {
				w := h.word(base + uint64(off))
				if !obj.IsHeader(w) {
					break // torn segment; Verify reports it
				}
				cell.Objects++
				off += 1 + obj.PayloadWords(obj.HeaderKind(w), obj.HeaderLength(w))
				if off > seg.Words {
					break // large object continues in continuation segments
				}
			}
		}
	}
	return c
}

// Generations returns the number of generation buckets per space.
func (c *Census) Generations() int { return len(c.BySpaceGen[0]) }

// Space sums the census over all generations of one space.
func (c *Census) Space(sp seg.Space) CensusCell {
	var out CensusCell
	for _, cell := range c.BySpaceGen[sp] {
		out.add(cell)
	}
	return out
}

// Gen sums the census over all spaces of one generation.
func (c *Census) Gen(g int) CensusCell {
	var out CensusCell
	for sp := range c.BySpaceGen {
		if g < len(c.BySpaceGen[sp]) {
			out.add(c.BySpaceGen[sp][g])
		}
	}
	return out
}

// Total sums the census over the whole heap.
func (c *Census) Total() CensusCell {
	var out CensusCell
	for sp := range c.BySpaceGen {
		out.add(c.Space(seg.Space(sp)))
	}
	return out
}

// String renders the census as a small space × generation table of
// live words, with object counts per space.
func (c Census) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "space")
	for g := 0; g < c.Generations(); g++ {
		fmt.Fprintf(&b, "  %10s", fmt.Sprintf("gen%d", g))
	}
	fmt.Fprintf(&b, "  %10s  %8s\n", "words", "objects")
	for sp := 0; sp < int(seg.NumSpaces); sp++ {
		fmt.Fprintf(&b, "%-6s", seg.Space(sp))
		for g := 0; g < c.Generations(); g++ {
			fmt.Fprintf(&b, "  %10d", c.BySpaceGen[sp][g].Words)
		}
		tot := c.Space(seg.Space(sp))
		fmt.Fprintf(&b, "  %10d  %8d\n", tot.Words, tot.Objects)
	}
	t := c.Total()
	fmt.Fprintf(&b, "total: %d words, %d objects, %d segments", t.Words, t.Objects, t.Segments)
	dirty := 0
	for _, n := range c.DirtyByGen {
		dirty += n
	}
	fmt.Fprintf(&b, "\nremset: %d dirty segments, by youngest referent %v", dirty, c.DirtyByGen)
	return b.String()
}
