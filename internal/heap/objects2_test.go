package heap_test

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// Direct unit tests for the object kinds primarily consumed by the
// scheme package (ports), so the heap package's own suite covers every
// accessor.

func TestPortObjectFields(t *testing.T) {
	h := heap.NewDefault()
	buf := h.MakeBytevector(16)
	p := h.MakePort(3, 42, buf)
	if h.PortField(p, heap.PortFlags).FixnumValue() != 3 {
		t.Fatal("flags wrong")
	}
	if h.PortField(p, heap.PortFileID).FixnumValue() != 42 {
		t.Fatal("file id wrong")
	}
	if h.PortField(p, heap.PortBuffer) != buf {
		t.Fatal("buffer wrong")
	}
	if h.PortField(p, heap.PortOpen) != obj.True {
		t.Fatal("fresh port should be open")
	}
	h.SetPortField(p, heap.PortIndex, obj.FromFixnum(5))
	if h.PortField(p, heap.PortIndex).FixnumValue() != 5 {
		t.Fatal("index field wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad port field index did not panic")
			}
		}()
		h.PortField(p, 99)
	}()
}

func TestPeekSymbolOutsideCollection(t *testing.T) {
	h := heap.NewDefault()
	s := h.MakeSymbol(h.MakeString("peeked"))
	h.SetSymbolValue(s, obj.FromFixnum(8))
	val, plist, ok := h.PeekSymbol(s)
	if !ok || val.FixnumValue() != 8 || plist != obj.Nil {
		t.Fatal("PeekSymbol wrong on live symbol")
	}
	if _, _, ok := h.PeekSymbol(h.Cons(obj.Nil, obj.Nil)); ok {
		t.Fatal("PeekSymbol accepted a pair")
	}
	if _, _, ok := h.PeekSymbol(obj.FromFixnum(1)); ok {
		t.Fatal("PeekSymbol accepted a fixnum")
	}
	if _, _, ok := h.PeekSymbol(h.MakeString("str")); ok {
		t.Fatal("PeekSymbol accepted a string")
	}
}

func TestConfigAccessorsAndStamp(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Generations = 5
	h := heap.MustNew(cfg)
	if h.Config().Generations != 5 {
		t.Fatal("Config accessor wrong")
	}
	if h.MaxGeneration() != 4 {
		t.Fatal("MaxGeneration wrong")
	}
	before := h.Stamp()
	h.Collect(0)
	if h.Stamp() != before+1 {
		t.Fatal("Stamp should advance by one per collection")
	}
}

func TestAddressOfIdentity(t *testing.T) {
	h := heap.NewDefault()
	p := h.Cons(obj.Nil, obj.Nil)
	q := h.Cons(obj.Nil, obj.Nil)
	if h.AddressOf(p) == h.AddressOf(q) {
		t.Fatal("distinct pairs share an address")
	}
	if h.AddressOf(obj.FromFixnum(7)) != h.AddressOf(obj.FromFixnum(7)) {
		t.Fatal("equal immediates should share identity")
	}
	r := h.NewRoot(p)
	before := h.AddressOf(r.Get())
	h.Collect(0)
	if h.AddressOf(r.Get()) == before {
		t.Fatal("address should change when the collector moves the pair")
	}
}

func TestRemoveRootProvider(t *testing.T) {
	h := heap.NewDefault()
	held := h.Cons(obj.FromFixnum(3), obj.Nil)
	remove := h.AddRootProvider(heap.RootFunc(func(visit func(*obj.Value)) { visit(&held) }))
	h.Collect(0)
	if h.Car(held).FixnumValue() != 3 {
		t.Fatal("provider not visited")
	}
	remove()
	h.Collect(h.MaxGeneration())
	// held is now stale (provider removed): verify the provider really
	// is gone by checking the heap reclaimed everything.
	if h.LiveWords() > 64 {
		t.Fatalf("provider still holding objects: %d live words", h.LiveWords())
	}
}
