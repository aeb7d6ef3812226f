package heap

// Mutator is a goroutine's handle on the heap. The heap has one owner
// at a time, as the paper's collector has one mutator (§4): the
// collector is simply called by it. A handle that is active holds the
// heap's ownership mutex; RegisterMutator and Active take it, Idle and
// Unregister give it up. The holder may use the handle and the Heap it
// embeds alike — m.Cons is h.Cons, m.Collect is h.Collect — so there is
// one allocator and one collection path, and nothing on either takes a
// lock. A goroutine that uses the Heap without a handle must order its
// accesses against every handle holder itself.
//
// A Mutator belongs to one goroutine: its active and registered state
// is the owner's, unsynchronized.
type Mutator struct {
	*Heap
	active     bool
	registered bool
}

// RegisterMutator returns an active handle on the heap, waiting until
// no other handle is active.
func (h *Heap) RegisterMutator() *Mutator {
	h.own.Lock()
	return &Mutator{Heap: h, active: true, registered: true}
}

// Idle gives up the heap, letting another handle's Active or a new
// RegisterMutator proceed. Call it around anything that blocks outside
// the heap (channel waits, syscalls, long pure-Go computation).
func (m *Mutator) Idle() {
	m.check(m.registered && m.active, "Idle: mutator not active")
	m.active = false
	m.own.Unlock()
}

// Active takes the heap back, waiting until no other handle is active.
func (m *Mutator) Active() {
	m.check(m.registered && !m.active, "Active: mutator not idle")
	m.own.Lock()
	m.active = true
}

// Unregister retires the handle, giving up the heap if it is active.
func (m *Mutator) Unregister() {
	m.check(m.registered, "Unregister: mutator not registered")
	m.registered = false
	if m.active {
		m.active = false
		m.own.Unlock()
	}
}
