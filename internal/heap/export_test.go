package heap

import "fmt"

// Test-only exports for the external heap_test package.

// ImageState renders, one line each, what a heap loaded from an image
// and a clone of the same template must agree on: every in-use
// segment's index, space, generation, continuation flag, fill, stamp
// and words; the root slots; the protected lists in order; and the
// remembered-set size.
func ImageState(h *Heap) []string {
	var lines []string
	for i := 0; i < h.tab.Len(); i++ {
		if h.tab.InUse(i) {
			s, inf := h.tab.Seg(i), h.tab.Info(i)
			lines = append(lines, fmt.Sprintf("segment %d: %v gen %d cont %v fill %d stamp %d words %x",
				i, inf.Space(), inf.Gen(), s.Cont, s.Fill, s.Stamp, h.tab.Words(i)[:s.Fill]))
		}
	}
	for i := 0; i < h.rootsLen; i++ {
		c, o := h.rootSlot(i)
		lines = append(lines, fmt.Sprintf("root %d: live %v value %#x", i, c.live[o], c.vals[o]))
	}
	for g, lst := range h.protected {
		lines = append(lines, fmt.Sprintf("protected %d: %v", g, lst))
	}
	return append(lines, fmt.Sprintf("dirty cells: %d", h.DirtyCount()))
}
