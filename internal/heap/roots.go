package heap

import "repro/internal/obj"

// Root is a registered reference slot whose value survives collections
// and is updated when the collector moves its referent. Go code that
// holds heap values across a collection must do so through roots (or a
// RootVisitor); a plain obj.Value in a Go variable is invisible to the
// collector.
//
// Releasing a Root drops the reference; a guardian whose only
// reference was a released root becomes collectible, which — per the
// paper — cancels finalization of everything registered with it.
//
// Concurrency: NewRoot, Release, and AddRootProvider (and its remove
// function) mutate registry bookkeeping, so in concurrent-mutator mode
// they serialize on the allocation mutex. Get and Set on an individual
// Root stay unsynchronized — a root slot, like a Mutator, belongs to
// one goroutine (the collector rewrites slots only with the world
// stopped). Slots therefore live in fixed-size chunks whose addresses
// never change: growing the registry publishes a copied chunk
// directory through an atomic pointer instead of moving slots, so one
// goroutine's NewRoot cannot invalidate another's concurrent Set.
type Root struct {
	h   *Heap
	idx int
}

// rootChunkSlots is the number of root slots per chunk, sized for a
// server session, which holds a handful of roots: a chunk is 144
// bytes. Chunks are allocated once and never move; the directory grows
// by append, so it is copied only when its capacity doubles, amortized
// O(1) per root.
const rootChunkSlots = 16

type rootChunk struct {
	vals [rootChunkSlots]obj.Value
	live [rootChunkSlots]bool
}

// rootSlot returns the chunk and intra-chunk offset of slot idx. The
// atomic directory load pairs with the publication in growRootsLocked:
// a reader sees either directory, and every slot it can legitimately
// index exists, at the same address, in both.
func (h *Heap) rootSlot(idx int) (*rootChunk, int) {
	dir := *h.rootChunks.Load()
	return dir[idx/rootChunkSlots], idx % rootChunkSlots
}

// growRootsLocked appends one chunk to the directory. Caller holds
// allocMu in mutator mode (NewRoot) or owns the heap (image load). The
// append may write the new chunk into the old directory's backing
// array, past its length: no reader of the old directory indexes there,
// and a reader of the new one loads it after the atomic store.
func (h *Heap) growRootsLocked() {
	dir := append(*h.rootChunks.Load(), &rootChunk{})
	h.rootChunks.Store(&dir)
}

// NewRoot registers v as a collector root and returns its slot.
func (h *Heap) NewRoot(v obj.Value) *Root {
	if h.mutCount.Load() != 0 {
		h.allocMu.Lock()
		defer h.allocMu.Unlock()
	}
	var idx int
	if n := len(h.rootsFree); n > 0 {
		idx = h.rootsFree[n-1]
		h.rootsFree = h.rootsFree[:n-1]
	} else {
		idx = h.rootsLen
		if idx == len(*h.rootChunks.Load())*rootChunkSlots {
			h.growRootsLocked()
		}
		h.rootsLen++
	}
	c, o := h.rootSlot(idx)
	c.vals[o] = v
	c.live[o] = true
	return &Root{h: h, idx: idx}
}

// Get returns the root's current value (updated across collections).
func (r *Root) Get() obj.Value {
	c, o := r.h.rootSlot(r.idx)
	r.h.check(c.live[o], "use of released root")
	return c.vals[o]
}

// Set replaces the root's value.
func (r *Root) Set(v obj.Value) {
	c, o := r.h.rootSlot(r.idx)
	r.h.check(c.live[o], "use of released root")
	c.vals[o] = v
}

// Release drops the root. Releasing twice panics.
func (r *Root) Release() {
	h := r.h
	if h.mutCount.Load() != 0 {
		h.allocMu.Lock()
		defer h.allocMu.Unlock()
	}
	c, o := h.rootSlot(r.idx)
	h.check(c.live[o], "double release of root")
	c.live[o] = false
	c.vals[o] = obj.False
	h.rootsFree = append(h.rootsFree, r.idx)
}

// RootVisitor is implemented by components that keep heap values in Go
// data structures (interpreter stacks, symbol tables, Go-side caches).
// VisitRoots must call visit on the address of every held Value; the
// collector forwards each in place.
type RootVisitor interface {
	VisitRoots(visit func(*obj.Value))
}

// AddRootProvider registers a RootVisitor with the heap and returns a
// function that unregisters it. Identity is tracked internally, so any
// provider — including func-typed RootFunc values, which are not
// comparable — can be removed safely.
func (h *Heap) AddRootProvider(p RootVisitor) (remove func()) {
	if h.mutCount.Load() != 0 {
		h.allocMu.Lock()
		defer h.allocMu.Unlock()
	}
	e := &providerEntry{v: p}
	h.providers = append(h.providers, e)
	return func() {
		if h.mutCount.Load() != 0 {
			h.allocMu.Lock()
			defer h.allocMu.Unlock()
		}
		for i, q := range h.providers {
			if q == e {
				h.providers = append(h.providers[:i], h.providers[i+1:]...)
				return
			}
		}
	}
}

type providerEntry struct{ v RootVisitor }

// RootSlot returns the value in root slot i and whether the slot
// exists and is live. Slot indexes are stable across SaveImage /
// LoadImage, which is what the image tests use it for.
func (h *Heap) RootSlot(i int) (obj.Value, bool) {
	if i < 0 || i >= h.rootsLen {
		return obj.False, false
	}
	c, o := h.rootSlot(i)
	if !c.live[o] {
		return obj.False, true // slot exists but is free
	}
	return c.vals[o], true
}

// RootFunc adapts a function to the RootVisitor interface.
type RootFunc func(visit func(*obj.Value))

// VisitRoots implements RootVisitor.
func (f RootFunc) VisitRoots(visit func(*obj.Value)) { f(visit) }
