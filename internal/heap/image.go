package heap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/obj"
	"repro/internal/seg"
)

// Heap images, in the spirit of Chez Scheme's saved heaps. An image is
// an encoded Template: SaveImage captures the heap (CaptureTemplate)
// and encodes the template, and LoadImage decodes one and instantiates
// it with the heap owning the word arrays outright. The walk over
// segments, root slots and protected lists is therefore
// CaptureTemplate's alone. Segment indexes are preserved, so
// no pointer needs adjusting.
//
// Go-side state is out of scope by design: root *handles*, root
// providers, collect-request handlers, and post-collect hooks are
// live Go values; LoadImage returns fresh handles for the saved root
// slots and the caller re-registers everything else. Scheme-level
// state lives entirely in the heap; the scheme package's machine
// images add the symbol table.
//
// Format GUARDIMG7, little-endian u64s and u8 flags: the magic; the
// generation count, live trigger, radix, static-top, dirty-set and
// weak-scan-all flags, segment limit, stamp and automatic-collection
// count; the segment-table length — the last in-use index plus one:
// trailing free slots are not written — and in-use count, then per
// in-use segment, in ascending index order, its index, space,
// generation, remembered-set mark (a seg.Mark byte), continuation flag,
// fill, stamp and fill words; the root slots (live flag, value); per
// generation the protected list (object, representative, tconc).

const imageMagic = "GUARDIMG7\n"

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

// SaveImage writes the heap to w: CaptureTemplate, then Encode. The
// heap must not be mid-collection: a save from a post-collect hook
// returns an error rather than serializing a half-forwarded heap;
// retry after the collection finishes.
func (h *Heap) SaveImage(w io.Writer) error {
	tpl, err := h.CaptureTemplate()
	if err != nil {
		return err
	}
	return tpl.Encode(w)
}

// Encode writes the template as a heap image, which LoadImage reads.
// The policy itself is not written: LoadImage maps the trigger and
// radix to a RadixPolicy, under StaticTop when the donor's policy was
// wrapped in it. The trigger is the donor's live one (a heap tuned by
// AdaptivePolicy resumes from its tuned nursery size) and the radix a
// RadixPolicy's cadence, the stock one for any other policy.
func (t *Template) Encode(w io.Writer) error {
	policy := t.cfg.Policy
	st, static := policy.(staticTop)
	if static {
		policy = st.Policy
	}
	radix := DefaultRadix
	if rp, ok := policy.(RadixPolicy); ok && rp.Radix != 0 {
		radix = rp.Radix
	}
	// bufio.Writer's errors are sticky: Flush returns the first.
	bw := bufio.NewWriter(w)
	var word [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(word[:], v)
			bw.Write(word[:])
		}
	}
	flag := func(b bool) {
		if b {
			bw.WriteByte(1)
		} else {
			bw.WriteByte(0)
		}
	}
	put(uint64(len(imageMagic)))
	bw.WriteString(imageMagic)
	put(uint64(t.cfg.Generations), uint64(t.trigger), uint64(radix))
	flag(static)
	flag(t.cfg.UseDirtySet)
	flag(t.cfg.WeakScanAll)
	put(uint64(t.cfg.MaxSegments), t.stamp, t.autoCount)

	total := 0
	if n := len(t.segs); n > 0 {
		total = t.segs[n-1].Index + 1
	}
	put(uint64(total), uint64(len(t.segs)))
	for i := range t.segs {
		s := &t.segs[i]
		put(uint64(s.Index))
		bw.WriteByte(uint8(s.Space))
		put(uint64(s.Gen))
		bw.WriteByte(uint8(s.Mark))
		flag(s.Cont)
		put(uint64(s.Fill), s.Stamp)
		put(s.Words[:s.Fill]...)
	}

	put(uint64(len(t.rootVals)))
	for i, v := range t.rootVals {
		flag(t.rootLive[i])
		put(uint64(v))
	}
	put(uint64(len(t.protected)))
	for _, lst := range t.protected {
		put(uint64(len(lst)))
		for _, e := range lst {
			put(uint64(e.Obj), uint64(e.Rep), uint64(e.Tconc))
		}
	}
	return bw.Flush()
}

// LoadImage reconstructs a heap from an image written by SaveImage.
// It returns the heap and fresh Root handles for every live saved
// root slot (indexed as in the saved heap; dead slots are nil).
//
// The whole stream is decoded into a Template before any heap is
// built, so a truncated or corrupt image is a descriptive error with
// nothing committed, and the built heap must pass Verify.
func LoadImage(r io.Reader) (*Heap, []*Root, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	tpl, err := decodeTemplate(&imageReader{r: br})
	if err != nil {
		return nil, nil, err
	}
	h, handles, err := tpl.instantiate(false)
	if err != nil {
		return nil, nil, err
	}
	if errs := h.Verify(); len(errs) > 0 {
		return nil, nil, fmt.Errorf("heap: image fails verification: %w", errs[0])
	}
	return h, handles, nil
}

// decodeTemplate reads what Encode wrote. Counts off the wire are
// bounds-checked before any allocation proportional to them (a hostile
// segment count cannot make the loader commit memory the stream does
// not back), and segment records must arrive in strictly ascending
// index order, so a duplicate record is a detected corruption rather
// than a silent overwrite. The table length must be the last record's
// index plus one, so it is backed by a record; the free slots below it
// cost the table only their dense entries (seg.NewTableFromSegs).
func decodeTemplate(ir *imageReader) (*Template, error) {
	corrupt := func(what string) (*Template, error) {
		if ir.err != nil {
			return nil, fmt.Errorf("heap: corrupt image (%s): %w", what, ir.err)
		}
		return nil, fmt.Errorf("heap: corrupt image (%s)", what)
	}
	magic := make([]byte, len(imageMagic))
	if n := ir.u64(); ir.err != nil || n != uint64(len(magic)) {
		return nil, fmt.Errorf("heap: not a heap image")
	}
	if _, err := io.ReadFull(ir.r, magic); err != nil || string(magic) != imageMagic {
		return nil, fmt.Errorf("heap: not a heap image")
	}
	tpl := &Template{cfg: Config{Generations: int(ir.u64())}}
	tpl.trigger = int(ir.u64())
	tpl.cfg.Policy = RadixPolicy{Trigger: tpl.trigger, Radix: int(ir.u64())}
	if ir.u8() != 0 {
		tpl.cfg.Policy = StaticTop(tpl.cfg.Policy)
	}
	tpl.cfg.UseDirtySet = ir.u8() != 0
	tpl.cfg.WeakScanAll = ir.u8() != 0
	tpl.cfg.MaxSegments = int(ir.u64())
	tpl.stamp = ir.u64()
	tpl.autoCount = ir.u64()
	if ir.err != nil {
		return corrupt("header")
	}
	if err := tpl.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("heap: corrupt image: %w", err)
	}

	// The cap bounds the slot directory (1<<22 segments is a 16 GB
	// heap); word arrays exist only for records present in the stream.
	total, inUse := int(ir.u64()), int(ir.u64())
	if ir.err != nil || total < 0 || total > 1<<22 || inUse < 0 || inUse > total {
		return corrupt("segment count")
	}
	prev := -1
	for k := 0; k < inUse; k++ {
		idx := int(ir.u64())
		if ir.err != nil || idx <= prev || idx >= total {
			return corrupt(fmt.Sprintf("segment index %d out of order", idx))
		}
		prev = idx
		ts := seg.TemplateSeg{
			Index: idx,
			Space: seg.Space(ir.u8()),
			Gen:   int(ir.u64()),
			Mark:  seg.Mark(ir.u8()),
			Cont:  ir.u8() != 0,
			Fill:  int(ir.u64()),
			Stamp: ir.u64(),
		}
		if ir.err != nil || ts.Fill < 0 || ts.Fill > seg.Words ||
			ts.Gen < 0 || ts.Gen >= tpl.cfg.Generations || ts.Space >= seg.NumSpaces {
			return corrupt("segment record")
		}
		// A mark no younger than its own segment, or on a data segment,
		// is one no collector writes; the scan would read a data
		// segment's raw words as values.
		if ts.Mark != seg.Clean && (ts.Mark.Gen() >= ts.Gen || ts.Space == seg.SpaceData) {
			return corrupt("segment mark")
		}
		ts.Words = make([]uint64, seg.Words)
		for off := range ts.Words[:ts.Fill] {
			ts.Words[off] = ir.u64()
		}
		if ir.err != nil {
			return corrupt("segment words")
		}
		tpl.segs = append(tpl.segs, ts)
	}
	if prev+1 != total {
		return corrupt(fmt.Sprintf("table length %d past the last segment %d", total, prev))
	}
	tpl.nseg = total

	nRoots := int(ir.u64())
	if ir.err != nil || nRoots < 0 || nRoots > 1<<24 {
		return corrupt("roots")
	}
	for i := 0; i < nRoots; i++ {
		live := ir.u8() != 0
		tpl.rootLive = append(tpl.rootLive, live)
		tpl.rootVals = append(tpl.rootVals, obj.Value(ir.u64()))
		if ir.err != nil {
			return corrupt("roots")
		}
	}

	if n := int(ir.u64()); ir.err != nil || n != tpl.cfg.Generations {
		return corrupt("protected lists")
	}
	tpl.protected = make([][]ProtEntry, tpl.cfg.Generations)
	for g := range tpl.protected {
		n := int(ir.u64())
		if ir.err != nil || n < 0 || n > 1<<24 {
			return corrupt("protected entries")
		}
		for k := 0; k < n; k++ {
			e := ProtEntry{Obj: obj.Value(ir.u64()), Rep: obj.Value(ir.u64()), Tconc: obj.Value(ir.u64())}
			if ir.err != nil {
				return corrupt("protected entries")
			}
			tpl.protected[g] = append(tpl.protected[g], e)
		}
	}

	return tpl, nil
}
