package scheme

import "repro/internal/obj"

// The symbol table is two-level. Symbol indexes [0, len(baseSyms))
// live in a base: the permanent symbols of a template's donor, frozen
// once by CaptureTemplate and shared by every machine attached to that
// template. Every index from len(baseSyms) on lives in the machine's
// own overlay (symIdx, syms, symNames, symsFree): the template's
// non-permanent tail, and everything the machine interns itself.
// Lookup tries the base, then the overlay; base symbols are permanent
// and never pruned, so the two never hold the same name. A machine
// loaded by LoadMachineImage has the base its image carried, private
// to it; machines booted by New run the same code over an empty base.
//
// Nothing stores into a base. The collector forwards symbol slots and
// permanent-symbol snapshots in place, so while a machine still aliases
// its template's base (m.shared) VisitRoots hands the collector a copy
// of each base slot, and when a collection does move one — an explicit
// collection of the static generation, or a clone heap with no static
// generation at all — the machine first flattens: it takes a private
// copy of the base values and snapshots, and stores the moved value
// there. Host writes to permanent state (DefinePrim) flatten the same
// way. The base names and name→index map are never written by anyone
// and stay shared for the machine's life.

// symBase is a frozen symbol-table prefix: names, symbol values, the
// name→index map, and the permanent-symbol snapshots (see
// Machine.permValues) of one template's donor.
type symBase struct {
	names  []string
	idx    map[string]int
	syms   []obj.Value
	values []obj.Value
	plists []obj.Value
}

// emptyBase is the base of machines booted by New.
var emptyBase = &symBase{}

// freezeBase copies m's permanent prefix [0, permanentSyms) into a new
// base.
func (m *Machine) freezeBase() *symBase {
	n := m.permanentSyms
	b := &symBase{
		names:  make([]string, n),
		idx:    make(map[string]int, n),
		syms:   make([]obj.Value, n),
		values: append([]obj.Value(nil), m.permValues[:n]...),
		plists: append([]obj.Value(nil), m.permPlists[:n]...),
	}
	for i := 0; i < n; i++ {
		b.names[i], b.syms[i] = m.symbolName(i), m.symbol(i)
		if b.syms[i] != obj.False || b.names[i] != "" {
			b.idx[b.names[i]] = i
		}
	}
	return b
}

// symbol returns symbol slot i (obj.False for a freed slot).
func (m *Machine) symbol(i int) obj.Value {
	if i < len(m.baseSyms) {
		return m.baseSyms[i]
	}
	return m.syms[i-len(m.baseSyms)]
}

// symbolName returns the name in symbol slot i ("" for a freed slot).
func (m *Machine) symbolName(i int) string {
	if i < len(m.baseSyms) {
		return m.base.names[i]
	}
	return m.symNames[i-len(m.baseSyms)]
}

// symbolIndex returns the slot of the symbol named name, if interned.
func (m *Machine) symbolIndex(name string) (int, bool) {
	if i, ok := m.base.idx[name]; ok {
		return i, true
	}
	i, ok := m.symIdx[name]
	return i, ok
}

// numSymbolSlots returns the number of symbol slots, freed ones
// included.
func (m *Machine) numSymbolSlots() int { return len(m.baseSyms) + len(m.syms) }

// flatten gives the machine private copies of the base values and the
// permanent-symbol snapshots, so it may store into them. It runs at
// most once per machine, and never on one that was not attached to a
// template.
func (m *Machine) flatten() {
	if !m.shared {
		return
	}
	m.baseSyms = append([]obj.Value(nil), m.baseSyms...)
	m.permValues = append([]obj.Value(nil), m.permValues...)
	m.permPlists = append([]obj.Value(nil), m.permPlists...)
	m.shared = false
}

// visitShared visits the slots of *s, one of the slices flatten
// privatizes. The collector sees a copy of each slot in m.visitCell (a
// field, so taking its address allocates nothing), and a moved value is
// stored only after flattening, which points *s at the private copy
// while the slice is shared and does nothing once it is not.
func (m *Machine) visitShared(s *[]obj.Value, visit func(*obj.Value)) {
	for i := range *s {
		m.visitCell = (*s)[i]
		visit(&m.visitCell)
		if m.visitCell != (*s)[i] {
			m.flatten()
			(*s)[i] = m.visitCell
		}
	}
}
