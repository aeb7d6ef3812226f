package scheme

import (
	"fmt"
	"os"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/ports"
)

// Machine templates layer the symbol table over heap templates. A
// MachineTemplate is a quiescent machine captured once: its heap
// template, its permanent symbols frozen into a base (symtab.go), the
// symbols past the base, and the counters a machine carries. Clone +
// Attach boot a machine from it in microseconds: the clone's heap
// shares the template's segments read-only (heap.CloneFromTemplate),
// and the machine shares the template's base and the package's
// built-in primitive table, copying only the few symbols past the
// base. A machine image (image.go) is a template encoded, and
// LoadMachineImage attaches the decoded template to a heap it owns.
//
// Host-primitive contract: a donor that called DefinePrim before
// capture has those primitives' indexes and global bindings baked into
// the template's heap, but their functions are the host's, so Attach
// cannot install them: the host must re-DefinePrim its extra
// primitives on each attached machine, in the same order as on the
// donor. DefinePrim detects the replay (the permanent symbol already
// holds a primitive with the index being assigned) and takes an
// allocation-free fast path, so the replay costs no heap writes.
//
// Staleness: DefinePrim on the donor after capture bumps the donor's
// PermVersion; the template records the version at capture, so holders
// compare donor.PermVersion() against Template.PermVersion() and
// re-capture instead of silently booting clones with a divergent
// prelude (the server's sessionTemplate does exactly this).
type MachineTemplate struct {
	ht          *heap.Template
	base        *symBase // the donor's permanent symbols, shared by every attached machine
	tailNames   []string // the donor's symbols past the base, copied per machine
	tailSyms    []obj.Value
	symsFree    []int
	keywords    [numKeywords]obj.Value
	gensymN     int
	nextContID  int64
	pruneSyms   bool
	permVersion uint64
}

// PermVersion returns the donor's permanent-state version at capture
// (see Machine.PermVersion).
func (t *MachineTemplate) PermVersion() uint64 { return t.permVersion }

// HeapTemplate returns the underlying heap template.
func (t *MachineTemplate) HeapTemplate() *heap.Template { return t.ht }

// CaptureTemplate snapshots m into a MachineTemplate. The machine must
// be quiescent (no evaluation in progress); compiled closures it holds
// are heap data like any other, so clones share them too. The
// machine's heap is fully collected first — the paper's "stopped,
// collected heap" — so clones share a compacted heap with an empty
// nursery and (in practice) an empty remembered set, minimizing the
// copy-on-write faults each clone can take. The donor remains fully
// usable afterwards and shares no mutable state with the template.
func CaptureTemplate(m *Machine) (*MachineTemplate, error) {
	if len(m.stack) != 0 || len(m.vmFrames) != 0 {
		return nil, fmt.Errorf("scheme: CaptureTemplate requires a quiescent machine")
	}
	m.H.Collect(m.H.MaxGeneration())
	return m.capture()
}

// capture snapshots the quiescent m as it stands, without collecting:
// CaptureTemplate collects first, SaveImage does not.
func (m *Machine) capture() (*MachineTemplate, error) {
	ht, err := m.H.CaptureTemplate()
	if err != nil {
		return nil, err
	}
	t := &MachineTemplate{
		ht:          ht,
		base:        m.freezeBase(),
		symsFree:    append([]int(nil), m.symsFree...),
		keywords:    m.keywords,
		gensymN:     m.gensymN,
		nextContID:  m.nextContID,
		pruneSyms:   m.pruneSymbols,
		permVersion: m.permVersion,
	}
	for i := m.permanentSyms; i < m.numSymbolSlots(); i++ {
		t.tailNames = append(t.tailNames, m.symbolName(i))
		t.tailSyms = append(t.tailSyms, m.symbol(i))
	}
	return t, nil
}

// Clone spawns a copy-on-write heap from the template (see
// heap.CloneFromTemplate). It returns the heap and the inherited root
// handles; a host that replaces the donor's Go-side structures (port
// managers, mailboxes) rather than adopting them should release the
// inherited handles so the structures they pin become collectible.
func (t *MachineTemplate) Clone() (*heap.Heap, []*heap.Root, error) {
	return heap.CloneFromTemplate(t.ht)
}

// Attach builds a Machine over h — a heap cloned from this template,
// or the heap of the image it was decoded from — bound to pm (a fresh
// manager over an empty simulated file system if nil). The machine reads the template's symbol-table base — names,
// symbol values, the name→index map, the permanent-symbol snapshots —
// in place, and copies only the donor's symbols past it into its
// overlay. It never writes the base: a collection that moves a base
// value, or a DefinePrim that changes permanent state, first gives this
// machine alone a private copy (symtab.go). The snapshots are the
// donor's, never re-captured, so every clone reverts (DropUserState)
// to the donor's exact prelude state.
//
// Attach installs no primitive: the built-ins dispatch through the
// package's one table, and the host must re-DefinePrim any
// donor-registered primitives in the donor's order before running
// hosted code (see the type comment on the contract and the DefinePrim
// fast path).
func (t *MachineTemplate) Attach(h *heap.Heap, pm *ports.Manager) *Machine {
	if pm == nil {
		pm = ports.NewManager(h, ports.NewFS())
	}
	b := t.base
	n := len(b.syms)
	m := &Machine{
		H:   h,
		PM:  pm,
		Out: os.Stdout,
		// Full slice expressions: an append can never reach the base.
		base:          b,
		baseSyms:      b.syms[:n:n],
		permValues:    b.values[:n:n],
		permPlists:    b.plists[:n:n],
		shared:        true,
		permanentSyms: n,
		keywords:      t.keywords,
		pruneSymbols:  t.pruneSyms,
		permVersion:   t.permVersion,
		fuel:          -1,
		gensymN:       t.gensymN,
		nextContID:    t.nextContID,
	}
	if len(t.tailSyms) > 0 {
		m.syms = append([]obj.Value(nil), t.tailSyms...)
		m.symNames = append([]string(nil), t.tailNames...)
		m.symIdx = make(map[string]int, len(t.tailNames))
		for i, name := range m.symNames {
			if m.syms[i] == obj.False && name == "" {
				continue // freed (pruned) slot
			}
			m.symIdx[name] = n + i
		}
	}
	if len(t.symsFree) > 0 {
		m.symsFree = append([]int(nil), t.symsFree...)
	}
	h.AddRootProvider(m)
	h.AddPostCollectHook(m.pruneDeadSymbols)
	return m
}
