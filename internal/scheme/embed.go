package scheme

import (
	"repro/internal/obj"
)

// This file is the embedding surface used by hosts that run many
// machines side by side (notably internal/server): installing extra
// host primitives into a machine, and resetting a machine's user-level
// state so that everything the hosted program created becomes
// collectible.

// DefinePrim registers an additional primitive procedure, exactly like
// the built-in primitives: name is bound globally to a primitive value
// dispatching to fn, with the given arity bounds (max = -1 for
// variadic). Hosts use it to expose embedder services (session ports,
// external resources, messaging) to hosted programs.
//
// DefinePrim must be called before the hosted program runs: primitives
// installed at that point are treated like the built-ins — their
// symbols become permanent, surviving both symbol pruning and
// DropUserState. Installing a primitive after user code has interned
// symbols still works, but its symbol is then permanent only if no
// user symbol was interned first.
func (m *Machine) DefinePrim(name string, min, max int, fn func(*Machine, Args) (obj.Value, error)) {
	idx := len(builtins) + len(m.hostPrims)
	// Clone fast path: a machine attached to a template clone
	// (MachineTemplate.Attach) inherits the donor's DefinePrim state in
	// the heap — the symbol is already permanent and its global value is
	// already a primitive with exactly this dispatch index, provided the
	// host re-registers its primitives in the donor's order (the Attach
	// contract). Then only the Go-side dispatch entry is missing:
	// install it and return without touching the heap or the snapshot,
	// which keeps clone boot allocation-free and — because nothing
	// changes — does not bump permVersion. The index check makes this
	// exact: m.hostPrims only ever grows, so an index collision is only
	// possible by replaying the same registration order on a heap that
	// already contains it.
	if i, ok := m.symbolIndex(name); ok && i < m.permanentSyms && m.symbol(i) != obj.False {
		if val, _, ok2 := m.H.PeekSymbol(m.symbol(i)); ok2 && val == obj.FromPrim(idx) {
			m.hostPrims = append(m.hostPrims, prim{name: name, min: min, max: max, fn: fn})
			return
		}
	}
	m.hostPrims = append(m.hostPrims, prim{name: name, min: min, max: max, fn: fn})
	p := obj.FromPrim(idx)
	m.H.SetSymbolValue(m.Intern(name), p)
	// Freshly interned at the permanence watermark: extend it, so the
	// primitive's global binding survives DropUserState like the
	// built-ins do. Either way the snapshots change, so a machine still
	// sharing its template's flattens first.
	if i, ok := m.symbolIndex(name); ok {
		switch {
		case i == m.permanentSyms:
			m.flatten()
			m.permanentSyms++
			m.snapshotPermanents()
		case i < m.permanentSyms:
			// Rebinding an already-permanent symbol: refresh its
			// snapshot so DropUserState keeps the primitive, not the
			// binding it replaced.
			m.flatten()
			m.permValues[i] = p
		}
	}
	// The permanent-symbol snapshot (or at least a permanent global
	// binding) changed: templates captured from this machine before now
	// describe a different prelude. CaptureTemplate records the version
	// so holders can detect the staleness instead of silently booting
	// divergent clones.
	m.permVersion++
}

// DropUserState severs the machine's references to everything the
// hosted program created: every symbol interned after machine
// initialization (and after any host DefinePrim calls) loses its
// global value and property list, permanent symbols revert to the
// bindings they had at initialization, and the shadow stack and VM
// frames are cleared. Compiled code needs no step of its own: it is
// heap data that the program's closures and running frames reach, so
// it goes with them. Nothing is freed directly — the next collection
// proves the now-unreferenced objects inaccessible, and any guardians
// they were registered with (ports, external resources) retrieve them
// through the ordinary tconc path. That is the point: a server
// disconnecting a session reclaims the session's external resources
// purely through the guardian mechanism, not through a parallel
// bookkeeping structure.
//
// The machine must be quiescent (no Eval in progress). It remains
// usable afterwards: the prelude and primitives are untouched.
func (m *Machine) DropUserState() {
	// Permanent symbols revert to their initialization-time bindings:
	// user code may have bound or set! one (the prelude interns short
	// names as lambda parameters, so a user (define p ...) can land on
	// a permanent slot), and such a binding must not outlive the
	// hosted program.
	for i := 0; i < m.permanentSyms; i++ {
		v := m.symbol(i)
		if v == obj.False {
			continue // freed slot
		}
		if val, plist, ok := m.H.PeekSymbol(v); ok {
			if val != m.permValues[i] {
				m.H.SetSymbolValue(v, m.permValues[i])
			}
			if plist != m.permPlists[i] {
				m.H.SetSymbolPlist(v, m.permPlists[i])
			}
		}
	}
	for i := m.permanentSyms - len(m.baseSyms); i < len(m.syms); i++ {
		v := m.syms[i]
		if v == obj.False {
			continue // freed slot
		}
		m.H.SetSymbolValue(v, obj.Unbound)
		m.H.SetSymbolPlist(v, obj.Nil)
	}
	m.vmFrames = m.vmFrames[:0]
	m.stack = m.stack[:0]
}

// PermanentSymbols returns the watermark index below which symbol
// slots are permanent: exempt from pruning and from DropUserState.
func (m *Machine) PermanentSymbols() int { return m.permanentSyms }

// PermVersion returns the machine's permanent-state version: it
// increments whenever DefinePrim changes a permanent binding or
// extends the permanent-symbol snapshot. MachineTemplate captures the
// donor's version; comparing it later detects stale templates.
func (m *Machine) PermVersion() uint64 { return m.permVersion }

// VisitSymbols calls fn for every interned symbol slot with its index,
// name, global value, and property list — an introspection aid for
// hosts chasing object retention through the symbol table. The machine
// must be quiescent (no Eval or collection in progress).
func (m *Machine) VisitSymbols(fn func(idx int, name string, value, plist obj.Value)) {
	for i := 0; i < m.numSymbolSlots(); i++ {
		v := m.symbol(i)
		if v == obj.False {
			continue // freed slot
		}
		value, plist, ok := m.H.PeekSymbol(v)
		if !ok {
			continue
		}
		fn(i, m.symbolName(i), value, plist)
	}
}
