package heap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/obj"
	"repro/internal/seg"
)

// Heap images, in the spirit of Chez Scheme's saved heaps: SaveImage
// serializes the complete heap state — configuration, every in-use
// segment (space, generation, contents), root slots, protected lists,
// and the dirty set — and LoadImage reconstructs an identical heap.
// Word addresses are segment-relative-stable (segment indexes are
// preserved), so no pointer adjustment is needed.
//
// Go-side state is out of scope by design: root *handles*, root
// providers, collect-request handlers, and post-collect hooks are
// live Go values; LoadImage returns fresh handles for the saved root
// slots and the caller re-registers everything else. Scheme-level
// state (globals, closures, guardians made with make-guardian) lives
// entirely in the heap and survives intact; see the scheme package's
// SaveImage for the symbol-table layer.

const imageMagic = "GUARDIMG3\n"

type imageWriter struct {
	w   *bufio.Writer
	err error
}

func (iw *imageWriter) u64(v uint64) {
	if iw.err == nil {
		iw.err = binary.Write(iw.w, binary.LittleEndian, v)
	}
}
func (iw *imageWriter) u8(v uint8) {
	if iw.err == nil {
		iw.err = iw.w.WriteByte(v)
	}
}
func (iw *imageWriter) str(s string) {
	iw.u64(uint64(len(s)))
	if iw.err == nil {
		_, iw.err = iw.w.WriteString(s)
	}
}

type imageReader struct {
	r   *bufio.Reader
	err error
}

func (ir *imageReader) u64() uint64 {
	var v uint64
	if ir.err == nil {
		ir.err = binary.Read(ir.r, binary.LittleEndian, &v)
	}
	return v
}
func (ir *imageReader) u8() uint8 {
	var v uint8
	if ir.err == nil {
		v, ir.err = ir.r.ReadByte()
	}
	return v
}
func (ir *imageReader) str() string {
	n := ir.u64()
	if ir.err != nil || n > 1<<24 {
		if ir.err == nil {
			ir.err = fmt.Errorf("heap: image string too long")
		}
		return ""
	}
	b := make([]byte, n)
	if ir.err == nil {
		_, ir.err = io.ReadFull(ir.r, b)
	}
	return string(b)
}

// SaveImage writes the heap to w. The heap must not be mid-collection:
// a save from a post-collect hook returns an error rather than
// serializing a half-forwarded heap; retry after the collection
// finishes.
func (h *Heap) SaveImage(w io.Writer) error {
	if h.inCollect {
		return fmt.Errorf("heap: SaveImage during a collection")
	}
	iw := &imageWriter{w: bufio.NewWriter(w)}
	iw.str(imageMagic)

	// Configuration. The trigger slot carries the live trigger
	// (Heap.TriggerWords) rather than the configured one, so a heap
	// tuned by AdaptivePolicy resumes from its tuned nursery size. The
	// policy itself is not serialized: LoadImage maps the trigger and
	// radix slots to a RadixPolicy, so the radix slot carries a
	// RadixPolicy's cadence and the stock one for anything else.
	radix := DefaultRadix
	if rp, ok := h.policy.(RadixPolicy); ok && rp.Radix != 0 {
		radix = rp.Radix
	}
	iw.u64(uint64(h.cfg.Generations))
	iw.u64(uint64(h.trigger))
	iw.u64(uint64(radix))
	iw.u8(b2u(h.cfg.UseDirtySet))
	iw.u8(b2u(h.cfg.WeakScanAll))
	iw.u64(uint64(h.cfg.MaxSegments))
	iw.u64(h.stamp)
	iw.u64(h.autoCount)

	// Segments.
	iw.u64(uint64(h.tab.Len()))
	inUse := 0
	for i := 0; i < h.tab.Len(); i++ {
		if h.tab.Seg(i).InUse {
			inUse++
		}
	}
	iw.u64(uint64(inUse))
	for i := 0; i < h.tab.Len(); i++ {
		s := h.tab.Seg(i)
		if !s.InUse {
			continue
		}
		iw.u64(uint64(i))
		iw.u8(uint8(s.Space))
		iw.u64(uint64(s.Gen))
		iw.u8(b2u(s.Cont))
		iw.u64(uint64(s.Fill))
		for off := 0; off < s.Fill; off++ {
			iw.u64(s.Words[off])
		}
	}

	// Root slots.
	iw.u64(uint64(h.rootsLen))
	for i := 0; i < h.rootsLen; i++ {
		c, o := h.rootSlot(i)
		iw.u8(b2u(c.live[o]))
		iw.u64(uint64(c.vals[o]))
	}

	// Protected lists.
	iw.u64(uint64(len(h.protected)))
	for _, lst := range h.protected {
		iw.u64(uint64(len(lst)))
		for _, e := range lst {
			iw.u64(uint64(e.Obj))
			iw.u64(uint64(e.Rep))
			iw.u64(uint64(e.Tconc))
		}
	}

	// Remembered set. The wire format is a flat deduplicated
	// (address, weak) list regardless of the in-memory representation,
	// so images written by the map-oracle configuration and by the
	// sharded set are interchangeable; LoadImage always rebuilds the
	// sharded form.
	iw.u64(uint64(h.DirtyCount()))
	if h.dirtyMap != nil {
		for addr, weak := range h.dirtyMap {
			iw.u64(addr)
			iw.u8(b2u(weak))
		}
	} else {
		shards := h.rem.all()
		for i := range shards {
			for _, c := range shards[i].entries {
				iw.u64(c.addr)
				iw.u8(b2u(c.weak))
			}
		}
	}

	if iw.err == nil {
		iw.err = iw.w.Flush()
	}
	return iw.err
}

// LoadImage reconstructs a heap from an image written by SaveImage.
// It returns the heap and fresh Root handles for every live saved
// root slot (indexed as in the saved heap; dead slots are nil).
//
// Error paths allocate nothing durable: the entire image is parsed
// into template parts first and the heap is only constructed once the
// stream has been read and validated in full, so a truncated or
// corrupt image can never leak a partially-built segment table or
// leave segments committed. Every failure is a wrapped, descriptive
// error. Counts off the wire are bounds-checked before any
// proportional allocation (a hostile segment count cannot make the
// loader commit memory the stream doesn't back), and segment records
// must arrive in strictly ascending index order — which is how
// SaveImage writes them, and which makes duplicate records a detected
// corruption instead of a silent overwrite.
func LoadImage(r io.Reader) (*Heap, []*Root, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	ir := &imageReader{r: br}
	if got := ir.str(); ir.err != nil || got != imageMagic {
		return nil, nil, fmt.Errorf("heap: not a heap image")
	}
	tpl := &Template{
		cfg: Config{
			Generations: int(ir.u64()),
			Policy:      RadixPolicy{Trigger: int(ir.u64()), Radix: int(ir.u64())},
			UseDirtySet: ir.u8() != 0,
			WeakScanAll: ir.u8() != 0,
			MaxSegments: int(ir.u64()),
		},
	}
	tpl.stamp = ir.u64()
	tpl.autoCount = ir.u64()
	if ir.err != nil {
		return nil, nil, fmt.Errorf("heap: corrupt image (header): %w", ir.err)
	}
	// The config came off the wire: a corrupt or hostile image fails
	// Validate here instead of producing a half-built heap.
	if err := tpl.cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("heap: corrupt image: %w", err)
	}

	// Segment records, parsed into template slots. The cap bounds the
	// slot-directory allocation (1<<22 segments is a 16 GB heap); word
	// arrays are only materialized for records actually present in the
	// stream.
	total := int(ir.u64())
	inUse := int(ir.u64())
	if ir.err != nil || total < 0 || total > 1<<22 || inUse < 0 || inUse > total {
		return nil, nil, fmt.Errorf("heap: corrupt image (segment count)")
	}
	tpl.segs = make([]seg.TemplateSeg, total)
	prev := -1
	for k := 0; k < inUse; k++ {
		idx := int(ir.u64())
		if ir.err != nil {
			return nil, nil, fmt.Errorf("heap: corrupt image (segment record): %w", ir.err)
		}
		if idx <= prev || idx >= total {
			return nil, nil, fmt.Errorf("heap: corrupt image (segment index %d out of order)", idx)
		}
		prev = idx
		ts := seg.TemplateSeg{
			Space: seg.Space(ir.u8()),
			Gen:   int(ir.u64()),
			Cont:  ir.u8() != 0,
			Fill:  int(ir.u64()),
		}
		if ir.err != nil {
			return nil, nil, fmt.Errorf("heap: corrupt image (segment record): %w", ir.err)
		}
		if ts.Fill < 0 || ts.Fill > seg.Words {
			return nil, nil, fmt.Errorf("heap: corrupt image (fill)")
		}
		if ts.Gen < 0 || ts.Gen >= tpl.cfg.Generations || ts.Space >= seg.NumSpaces {
			return nil, nil, fmt.Errorf("heap: corrupt image (segment metadata)")
		}
		ts.Words = make([]uint64, seg.Words)
		for off := 0; off < ts.Fill; off++ {
			ts.Words[off] = ir.u64()
		}
		if ir.err != nil {
			return nil, nil, fmt.Errorf("heap: corrupt image (segment words): %w", ir.err)
		}
		tpl.segs[idx] = ts
	}

	// Roots.
	nRoots := int(ir.u64())
	if ir.err != nil || nRoots < 0 || nRoots > 1<<24 {
		return nil, nil, fmt.Errorf("heap: corrupt image (roots)")
	}
	tpl.rootVals = make([]obj.Value, 0, min(nRoots, 1<<16))
	tpl.rootLive = make([]bool, 0, min(nRoots, 1<<16))
	for i := 0; i < nRoots; i++ {
		live := ir.u8() != 0
		v := obj.Value(ir.u64())
		if ir.err != nil {
			return nil, nil, fmt.Errorf("heap: corrupt image (roots): %w", ir.err)
		}
		tpl.rootVals = append(tpl.rootVals, v)
		tpl.rootLive = append(tpl.rootLive, live)
	}

	// Protected lists.
	nGens := int(ir.u64())
	if ir.err != nil || nGens != tpl.cfg.Generations {
		return nil, nil, fmt.Errorf("heap: corrupt image (protected lists)")
	}
	tpl.protected = make([][]ProtEntry, nGens)
	for g := 0; g < nGens; g++ {
		n := int(ir.u64())
		if ir.err != nil || n < 0 || n > 1<<24 {
			return nil, nil, fmt.Errorf("heap: corrupt image (protected entries)")
		}
		for k := 0; k < n; k++ {
			e := ProtEntry{
				Obj:   obj.Value(ir.u64()),
				Rep:   obj.Value(ir.u64()),
				Tconc: obj.Value(ir.u64()),
			}
			if ir.err != nil {
				return nil, nil, fmt.Errorf("heap: corrupt image (protected entries): %w", ir.err)
			}
			tpl.protected[g] = append(tpl.protected[g], e)
		}
	}

	// Remembered set.
	nDirty := int(ir.u64())
	if ir.err != nil || nDirty < 0 || nDirty > 1<<26 {
		return nil, nil, fmt.Errorf("heap: corrupt image (dirty set)")
	}
	for k := 0; k < nDirty; k++ {
		addr := ir.u64()
		weak := ir.u8() != 0
		if ir.err != nil {
			return nil, nil, fmt.Errorf("heap: corrupt image (dirty set): %w", ir.err)
		}
		tpl.dirty = append(tpl.dirty, dirtyCell{addr, weak})
	}

	// The stream parsed in full: construct the heap. The parsed word
	// arrays are referenced nowhere else, so the table takes ownership
	// outright (no copy-on-write aliasing).
	h, handles, err := tpl.instantiate(false)
	if err != nil {
		return nil, nil, err
	}
	if errs := h.Verify(); len(errs) > 0 {
		return nil, nil, fmt.Errorf("heap: image fails verification: %w", errs[0])
	}
	return h, handles, nil
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
