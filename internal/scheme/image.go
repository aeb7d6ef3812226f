package scheme

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/ports"
)

// A machine image is an encoded MachineTemplate, as a heap image is an
// encoded heap.Template: SaveImage captures the machine (without the
// collection CaptureTemplate runs first) and writes the template, and
// LoadMachineImage decodes one and Attaches it to the heap its heap
// image loads into, which the machine owns outright. Globals, closures
// — their compiled code is heap data — guardians and primitive
// bindings all live in the heap, so everything expressible in Scheme
// picks up where the saved session stopped, as with Chez Scheme's
// saved heaps.
//
// Format GUARDMACH7: the magic, the heap image (GUARDIMG7), then
// little-endian u64s, a name being its length and bytes: the base's
// size and per slot its name, symbol, snapshot value and property
// list; the tail's size and per slot its name and symbol (a freed slot
// is "" and #f); the free tail slots; gensymN, nextContID and the
// pruning flag. Older formats are refused as not a machine image.

const machineMagic = "GUARDMACH7\n"

// SaveImage writes the machine to w. The machine must be quiescent (no
// evaluation in progress).
func (m *Machine) SaveImage(w io.Writer) error {
	if len(m.stack) != 0 || len(m.vmFrames) != 0 {
		return fmt.Errorf("scheme: SaveImage requires a quiescent machine")
	}
	t, err := m.capture()
	if err != nil {
		return err
	}
	out := []byte(machineMagic)
	if _, err := w.Write(out); err != nil {
		return err
	}
	if err := t.ht.Encode(w); err != nil {
		return err
	}
	put := func(vs ...uint64) {
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
	}
	slot := func(name string, sym obj.Value) {
		put(uint64(len(name)))
		out = append(out, name...)
		put(uint64(sym))
	}
	out = out[:0]
	b := t.base
	put(uint64(len(b.names)))
	for i, name := range b.names {
		slot(name, b.syms[i])
		put(uint64(b.values[i]), uint64(b.plists[i]))
	}
	put(uint64(len(t.tailNames)))
	for i, name := range t.tailNames {
		slot(name, t.tailSyms[i])
	}
	put(uint64(len(t.symsFree)))
	for _, i := range t.symsFree {
		put(uint64(i))
	}
	prune := uint64(0)
	if t.pruneSyms {
		prune = 1
	}
	put(uint64(t.gensymN), uint64(t.nextContID), prune)
	_, err = w.Write(out)
	return err
}

// LoadMachineImage reconstructs a machine from an image written by
// SaveImage, bound to a fresh port manager over pm (or an empty file
// system if nil). A truncated or corrupt image is an error, never a
// panic: the heap must pass heap.LoadImage's checks, and the rest must
// agree with that heap (decodeTemplate).
func LoadMachineImage(r io.Reader, pm *ports.Manager) (*Machine, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(machineMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != machineMagic {
		return nil, fmt.Errorf("scheme: not a machine image")
	}
	h, _, err := heap.LoadImage(br)
	if err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	t, err := decodeTemplate(&wire{b: rest}, h)
	if err != nil {
		return nil, fmt.Errorf("scheme: corrupt machine image (%v)", err)
	}
	return t.Attach(h, pm), nil
}

// decodeTemplate reads what SaveImage wrote after the heap image and
// checks it against h, the heap that image loaded into: each symbol
// slot holds a whole symbol object of h or is freed, names are unique,
// each snapshot is a value h.CheckValue accepts, every keyword and
// built-in is permanent (in the base), and each free-list entry names
// a distinct freed tail slot.
func decodeTemplate(in *wire, h *heap.Heap) (*MachineTemplate, error) {
	seen := make(map[string]bool)
	slot := func() (name string, sym obj.Value, ok bool) {
		name = string(in.bytes(in.u64()))
		sym = obj.Value(in.u64())
		if sym == obj.False && name == "" {
			return name, sym, !in.short // freed slot
		}
		if in.short || seen[name] || h.CheckValue(sym) != nil {
			return name, sym, false
		}
		seen[name] = true
		kind, p, ok := h.ObjectWords(sym)
		return name, sym, ok && kind == obj.KSymbol && len(p) == 3 // name, value, plist
	}

	b := &symBase{idx: make(map[string]int)}
	for i, n := 0, in.count(); i < n; i++ {
		name, sym, ok := slot()
		value, plist := obj.Value(in.u64()), obj.Value(in.u64())
		if !ok || in.short || h.CheckValue(value) != nil || h.CheckValue(plist) != nil {
			return nil, fmt.Errorf("base symbol %d", i)
		}
		if sym != obj.False {
			b.idx[name] = i
		}
		b.names, b.syms = append(b.names, name), append(b.syms, sym)
		b.values, b.plists = append(b.values, value), append(b.plists, plist)
	}
	t := &MachineTemplate{base: b}
	for i, name := range keywordNames {
		j, ok := b.idx[name]
		if !ok {
			return nil, fmt.Errorf("keyword %s not permanent", name)
		}
		t.keywords[i] = b.syms[j]
	}
	for _, p := range builtins {
		if _, ok := b.idx[p.name]; !ok {
			return nil, fmt.Errorf("built-in %s not permanent", p.name)
		}
	}
	for i, n := 0, in.count(); i < n; i++ {
		name, sym, ok := slot()
		if !ok {
			return nil, fmt.Errorf("symbol %d", len(b.names)+i)
		}
		t.tailNames, t.tailSyms = append(t.tailNames, name), append(t.tailSyms, sym)
	}
	free := make(map[int]bool)
	for k, n := 0, in.count(); k < n; k++ {
		i := int(in.u64()) - len(b.names)
		if in.short || i < 0 || i >= len(t.tailSyms) || t.tailSyms[i] != obj.False || free[i] {
			return nil, fmt.Errorf("free list")
		}
		free[i] = true
		t.symsFree = append(t.symsFree, len(b.names)+i)
	}
	t.gensymN, t.nextContID, t.pruneSyms = int(in.u64()), int64(in.u64()), in.u64() != 0
	if in.short {
		return nil, fmt.Errorf("truncated")
	}
	return t, nil
}

// wire reads little-endian words and byte strings from b. Reading past
// its end sets short and yields zeros.
type wire struct {
	b     []byte
	short bool
}

func (in *wire) bytes(n uint64) []byte {
	if n > uint64(len(in.b)) {
		in.short, in.b = true, nil
		return nil
	}
	p := in.b[:n]
	in.b = in.b[n:]
	return p
}

func (in *wire) u64() uint64 {
	if p := in.bytes(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// count reads a number of records, each of at least one word, so a
// count the rest of the input cannot hold reads as short, not as an
// allocation bomb.
func (in *wire) count() int {
	n := in.u64()
	if n > uint64(len(in.b)/8) {
		in.short = true
		return 0
	}
	return int(n)
}
