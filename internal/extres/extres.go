// Package extres simulates the external resources of §1 that a Scheme
// system must cope with: memory managed by malloc/free, temporary
// files, and subprocesses. Each resource is represented to the heap by
// a Scheme header object; a guardian-driven manager frees the external
// resource when the header is proven inaccessible — "extending the
// benefits of automatic storage management to external resources".
package extres

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obj"
)

// Kind distinguishes the simulated external resource types.
type Kind int

const (
	// Malloc is a block of external memory.
	Malloc Kind = iota
	// TempFile is a temporary file on the (simulated) file system.
	TempFile
	// Subprocess is a spawned child process awaiting reaping.
	Subprocess
)

func (k Kind) String() string {
	switch k {
	case Malloc:
		return "malloc"
	case TempFile:
		return "tempfile"
	case Subprocess:
		return "subprocess"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

type resource struct {
	kind  Kind
	size  int
	freed bool
}

// Arena is the external-resource table: the "outside world" whose
// allocations the collector cannot see.
type Arena struct {
	next      int
	resources map[int]*resource

	// Counters for the experiments.
	Allocs      uint64
	Frees       uint64
	LiveBytes   int
	DoubleFrees uint64
}

// NewArena creates an empty arena.
func NewArena() *Arena {
	return &Arena{next: 1, resources: make(map[int]*resource)}
}

// Alloc reserves an external resource and returns its id.
func (a *Arena) Alloc(kind Kind, size int) int {
	id := a.next
	a.next++
	a.resources[id] = &resource{kind: kind, size: size}
	a.Allocs++
	a.LiveBytes += size
	return id
}

// Free releases an external resource. Freeing twice is counted (a bug
// guardians are meant to prevent) and reported as an error.
func (a *Arena) Free(id int) error {
	r, ok := a.resources[id]
	if !ok {
		return fmt.Errorf("extres: free of unknown id %d", id)
	}
	if r.freed {
		a.DoubleFrees++
		return fmt.Errorf("extres: double free of id %d", id)
	}
	r.freed = true
	a.Frees++
	a.LiveBytes -= r.size
	return nil
}

// KindOf returns the kind of the resource with the given id, freed or
// not, and reports whether the id is known to the arena.
func (a *Arena) KindOf(id int) (Kind, bool) {
	r, ok := a.resources[id]
	if !ok {
		return 0, false
	}
	return r.kind, true
}

// Live returns the number of unfreed resources — the leak figure.
func (a *Arena) Live() int {
	n := 0
	for _, r := range a.resources {
		if !r.freed {
			n++
		}
	}
	return n
}

// Manager pairs an arena with a heap and a guardian. Wrap creates a
// Scheme header (a record holding the resource id) for an external
// resource and registers it; ReleaseDropped frees the resources of all
// headers proven inaccessible. The program chooses when ReleaseDropped
// runs — the paper's central design point.
type Manager struct {
	h     *heap.Heap
	arena *Arena
	g     *core.Guardian
	rtd   *heap.Root // shared record type descriptor

	// Released counts resources freed by ReleaseDropped.
	Released uint64
}

// NewManager creates a resource manager.
func NewManager(h *heap.Heap, arena *Arena) *Manager {
	return &Manager{
		h:     h,
		arena: arena,
		g:     core.NewGuardian(h),
		rtd:   h.NewRoot(h.MakeString("extres-header")),
	}
}

// Arena returns the manager's arena.
func (m *Manager) Arena() *Arena { return m.arena }

// Release drops the manager's heap references (its guardian and the
// record type descriptor); the manager must not be used afterwards.
func (m *Manager) Release() {
	m.g.Release()
	m.rtd.Release()
}

// Wrap allocates an external resource of the given kind and size and
// returns its Scheme header, registered with the manager's guardian.
func (m *Manager) Wrap(kind Kind, size int) obj.Value {
	id := m.arena.Alloc(kind, size)
	rec := m.h.MakeRecord(m.rtd.Get(), 2)
	m.h.RecordSet(rec, 0, obj.FromFixnum(int64(kind)))
	m.h.RecordSet(rec, 1, obj.FromFixnum(int64(id)))
	m.g.Register(rec)
	return rec
}

// IDOf returns the external resource id behind a header.
func (m *Manager) IDOf(header obj.Value) int {
	return int(m.h.RecordRef(header, 1).FixnumValue())
}

// KindOf returns the resource kind behind a header.
func (m *Manager) KindOf(header obj.Value) Kind {
	return Kind(m.h.RecordRef(header, 0).FixnumValue())
}

// FreeNow frees a header's resource explicitly, ahead of finalization.
// The pending guardian entry is left in place; ReleaseDropped skips
// already-freed resources, so explicit and automatic freeing compose
// without double frees.
func (m *Manager) FreeNow(header obj.Value) error {
	return m.arena.Free(m.IDOf(header))
}

// ReleaseDropped frees the resources of all headers proven
// inaccessible, returning the number freed. Resources already freed
// explicitly are skipped.
func (m *Manager) ReleaseDropped() int {
	n := 0
	for {
		if _, ok := m.ReleaseNext(); !ok {
			return n
		}
		n++
	}
}

// ReleaseNext retrieves one header proven inaccessible and frees its
// resource, returning the freed resource id. Headers whose resources
// were already freed explicitly are skipped. ok is false when no
// pending header remains. Retrieval order is the guardian's tconc
// order; callers that account reclamation per resource (the session
// server's reclaim log) use this instead of the batch ReleaseDropped.
func (m *Manager) ReleaseNext() (id int, ok bool) {
	for {
		rec, got := m.g.Get()
		if !got {
			return 0, false
		}
		id = m.IDOf(rec)
		if r, exists := m.arena.resources[id]; exists && !r.freed {
			if err := m.arena.Free(id); err == nil {
				m.Released++
				return id, true
			}
		}
	}
}

// Guardian exposes the resource guardian (for tests and hosts that
// drain it directly).
func (m *Manager) Guardian() *core.Guardian { return m.g }
