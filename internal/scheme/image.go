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

// Machine images layer the symbol table over heap images: SaveImage
// writes the heap followed by every interned symbol (name and heap
// value) and the permanent symbols' snapshots, and LoadMachineImage
// rebuilds a machine whose globals, closures — their compiled code
// being heap data — and guardians, everything expressible in Scheme,
// pick up exactly where the saved session stopped. This mirrors Chez Scheme's saved heaps.
//
// Restrictions: the machine must be quiescent (no evaluation in
// progress); primitives are re-installed by index, which is stable
// because the builtins table only grows.
//
// Format 5: the prelude is compiled. An older image holds the prelude
// as closures of a tree-walking evaluator that this machine cannot
// apply, so it is refused.

const machineMagic = "GUARDMACH5\n"

// SaveImage writes the machine (heap + symbol table) to w.
func (m *Machine) SaveImage(w io.Writer) error {
	if len(m.stack) != 0 || len(m.vmFrames) != 0 {
		return fmt.Errorf("scheme: SaveImage requires a quiescent machine")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(machineMagic); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := m.H.SaveImage(w); err != nil {
		return err
	}
	bw = bufio.NewWriter(w)
	wr := func(v uint64) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := wr(uint64(m.gensymN)); err != nil {
		return err
	}
	// Permanent slots are never freed, so the watermark is also the
	// number of written symbols that are permanent.
	if err := wr(uint64(m.permanentSyms)); err != nil {
		return err
	}
	n := m.numSymbolSlots()
	live := 0
	for i := 0; i < n; i++ {
		if m.symbol(i) != obj.False || m.symbolName(i) != "" {
			live++
		}
	}
	if err := wr(uint64(live)); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		sym, name := m.symbol(i), m.symbolName(i)
		if sym == obj.False && name == "" {
			continue // freed (pruned) slot
		}
		if err := wr(uint64(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := wr(uint64(sym)); err != nil {
			return err
		}
	}
	for i := 0; i < m.permanentSyms; i++ {
		if err := wr(uint64(m.permValues[i])); err != nil {
			return err
		}
		if err := wr(uint64(m.permPlists[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadMachineImage reconstructs a machine from an image written by
// SaveImage, bound to a fresh port manager over pm (or an empty file
// system if nil).
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
	m := newMachine(h, pm)

	rd := func() (uint64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	g, err := rd()
	if err != nil {
		return nil, err
	}
	m.gensymN = int(g)
	perm, err := rd()
	if err != nil {
		return nil, err
	}
	count, err := rd()
	if err != nil || count > 1<<24 || perm > count {
		return nil, fmt.Errorf("scheme: corrupt machine image")
	}
	for k := uint64(0); k < count; k++ {
		nlen, err := rd()
		if err != nil || nlen > 1<<16 {
			return nil, fmt.Errorf("scheme: corrupt machine image (symbol)")
		}
		nameB := make([]byte, nlen)
		if _, err := io.ReadFull(br, nameB); err != nil {
			return nil, err
		}
		sv, err := rd()
		if err != nil {
			return nil, err
		}
		name := string(nameB)
		m.symIdx[name] = len(m.syms)
		m.syms = append(m.syms, obj.Value(sv))
		m.symNames = append(m.symNames, name)
	}
	// The saved machine's permanent symbols are permanent again, and
	// DropUserState reverts them to the saved snapshots; the rest are
	// the saved program's, prunable and dropped like any user symbol.
	m.permanentSyms = int(perm)
	for i := 0; i < m.permanentSyms; i++ {
		v, err := rd()
		if err != nil {
			return nil, fmt.Errorf("scheme: corrupt machine image (snapshot)")
		}
		pl, err := rd()
		if err != nil {
			return nil, fmt.Errorf("scheme: corrupt machine image (snapshot)")
		}
		m.permValues = append(m.permValues, obj.Value(v))
		m.permPlists = append(m.permPlists, obj.Value(pl))
	}

	// Rebind the machine's internals against the restored table.
	m.internForms()
	// Primitives: the builtins table's order, as in New, so primitive
	// objects restored from the heap carry valid indexes; installPrims
	// also rebinds each name's global cell to a fresh primitive.
	m.installPrims()
	// Every keyword and built-in must be among the permanent symbols.
	if len(m.syms) != int(count) {
		return nil, fmt.Errorf("scheme: corrupt machine image (built-ins missing)")
	}
	for _, p := range builtins {
		if i, _ := m.symbolIndex(p.name); i >= m.permanentSyms {
			return nil, fmt.Errorf("scheme: corrupt machine image (built-in %s not permanent)", p.name)
		}
	}
	h.AddPostCollectHook(m.pruneDeadSymbols)
	return m, nil
}
