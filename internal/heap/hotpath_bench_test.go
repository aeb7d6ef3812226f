package heap_test

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// The five-second local before/after for the allocation path and the
// copying core: the layers heap-young measures end to end, one at a
// time. Public API only, so the file runs unchanged on an older commit.
//
//	go test -run '^$' -bench 'Cons|MakeVector64|Collect|BarrieredStore' ./internal/heap/
//
// (Collect matches BenchmarkCollectYoungList, ...Lists and ...Tree,
// BenchmarkCollectDirtyLists, BenchmarkCollectPromotedSlots,
// BenchmarkCollectLargeVectors,
// BenchmarkCollectScatteredList, BenchmarkCollectGen0 and
// BenchmarkCollectTraceOverhead.)

// BenchmarkCons is bump allocation plus the two-word initialization:
// nothing is rooted, so the periodic collection copies nothing.
func BenchmarkCons(b *testing.B) {
	h := heap.NewDefault()
	for i := 0; i < b.N; i++ {
		h.Cons(obj.FromFixnum(int64(i)), obj.Nil)
		if i&4095 == 4095 {
			h.Collect(0)
		}
	}
}

// BenchmarkMakeVector64 is a header plus a 64-word fill.
func BenchmarkMakeVector64(b *testing.B) {
	h := heap.NewDefault()
	for i := 0; i < b.N; i++ {
		h.MakeVector(64, obj.False)
		if i&255 == 255 {
			h.Collect(0)
		}
	}
}

// BenchmarkCollectYoungList is the copying core alone: each iteration
// builds a 10 000-pair list in generation 0 (untimed) and collects it
// into generation 1 — forward, install, sweep, 20 000 words — then
// drops it, so the next iteration starts from the same heap. The
// forward that reaches the head copies the whole list in list order,
// and one sweep pass sweeps it.
func BenchmarkCollectYoungList(b *testing.B) {
	h := heap.NewDefault()
	root := h.NewRoot(obj.Nil)
	var words uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root.Set(obj.Nil)
		h.Collect(1)
		for k := 0; k < 10000; k++ {
			root.Set(h.Cons(obj.FromFixnum(int64(k)), root.Get()))
		}
		b.StartTimer()
		words += h.Collect(0).WordsCopied
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word-copied")
}

// BenchmarkCollectYoungLists is the copying core on heap-young's shape:
// each iteration builds twelve 128-pair lists in generation 0, one per
// root (untimed), and collects them into generation 1 together — 3 072
// words — then drops them.
func BenchmarkCollectYoungLists(b *testing.B) {
	h := heap.NewDefault()
	var roots [12]*heap.Root
	for j := range roots {
		roots[j] = h.NewRoot(obj.Nil)
	}
	var words uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, r := range roots {
			r.Set(obj.Nil)
		}
		h.Collect(1)
		for _, r := range roots {
			for k := 0; k < 128; k++ {
				r.Set(h.Cons(obj.FromFixnum(int64(k)), r.Get()))
			}
		}
		b.StartTimer()
		words += h.Collect(0).WordsCopied
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word-copied")
}

// BenchmarkCollectYoungTree is BenchmarkCollectYoungLists' volume in a
// shape the copier cannot copy in list order: a rooted vector of twelve
// 128-pair chains linked through their cars, their cdrs fixnums. Each
// sweep pass finds one pair per chain, 128 passes a collection, the
// worst case for a sweep's per-pass overhead.
func BenchmarkCollectYoungTree(b *testing.B) {
	h := heap.NewDefault()
	root := h.NewRoot(obj.Nil)
	var words uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root.Set(obj.Nil)
		h.Collect(1)
		root.Set(h.MakeVector(12, obj.Nil))
		for j := 0; j < 12; j++ {
			for k := 0; k < 128; k++ {
				h.VectorSet(root.Get(), j, h.Cons(h.VectorRef(root.Get(), j), obj.FromFixnum(int64(k))))
			}
		}
		b.StartTimer()
		words += h.Collect(0).WordsCopied
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word-copied")
}

// BenchmarkCollectDirtyLists is the dirty-scan chase in heap-young's
// shape: a tenured 512-slot vector, and per iteration twelve 128-pair
// lists built in generation 0 with one in four stored into the vector
// (untimed), then a collection of generation 0, whose forwards of the
// remembered cells copy the stored lists whole. Every 64 iterations an
// untimed full collection drops the lists the vector no longer holds.
func BenchmarkCollectDirtyLists(b *testing.B) {
	h := heap.NewDefault()
	vec := h.NewRoot(h.MakeVector(512, obj.Nil))
	h.Collect(h.MaxGeneration())
	var words uint64
	slot := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%64 == 63 {
			h.Collect(h.MaxGeneration())
		}
		for j := 0; j < 12; j++ {
			lst := obj.Nil
			for k := 0; k < 128; k++ {
				lst = h.Cons(obj.FromFixnum(int64(k)), lst)
			}
			if j%4 == 0 {
				h.VectorSet(vec.Get(), slot, lst)
				slot = (slot + 1) % 512
			}
		}
		b.StartTimer()
		words += h.Collect(0).WordsCopied
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word-copied")
}

// BenchmarkCollectPromotedSlots is heap-guardian's FIFO alone: a
// tenured 1 024-slot vector, a three-segment run, whose slots hold
// records already promoted to generation 1, and per iteration 240 fresh
// records stored into the next 240 slots in ring order (untimed), then
// a collection of generation 0. It copies the fresh records and should
// not read the slots whose records an earlier collection promoted.
// Every 16 iterations an untimed collection of generation 1 promotes
// the records on, and every 64 a full one drops the overwritten ones.
func BenchmarkCollectPromotedSlots(b *testing.B) {
	const slots, fresh = 1024, 240
	h := heap.NewDefault()
	fifo := h.NewRoot(h.MakeVector(slots, obj.False))
	h.Collect(h.MaxGeneration())
	pos := 0
	store := func() {
		for j := 0; j < fresh; j++ {
			rec := h.MakeRecord(obj.FromFixnum(1), 3)
			h.RecordSet(rec, 0, obj.FromFixnum(int64(pos)))
			h.VectorSet(fifo.Get(), pos, rec)
			pos = (pos + 1) % slots
		}
	}
	for i := 0; i < slots/fresh+1; i++ { // fill every slot, promoted
		store()
		h.Collect(0)
	}
	var words uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		switch {
		case i%64 == 63:
			h.Collect(h.MaxGeneration())
		case i%16 == 15:
			h.Collect(1)
		}
		store()
		b.StartTimer()
		words += h.Collect(0).WordsCopied
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word-copied")
}

// BenchmarkCollectLargeVectors is the copy and sweep of a large object:
// per iteration a rooted 1 024-slot vector, a three-segment run, each
// slot holding a young 4-pair list (untimed), collected out of
// generation 0 — the run copied and swept a segment at a time, the
// lists forwarded from it — then dropped.
func BenchmarkCollectLargeVectors(b *testing.B) {
	h := heap.NewDefault()
	root := h.NewRoot(obj.Nil)
	var words uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root.Set(obj.Nil)
		h.Collect(1)
		root.Set(h.MakeVector(1024, obj.Nil))
		for j := 0; j < 1024; j++ {
			lst := obj.Nil
			for k := 0; k < 4; k++ {
				lst = h.Cons(obj.FromFixnum(int64(k)), lst)
			}
			h.VectorSet(root.Get(), j, lst)
		}
		b.StartTimer()
		words += h.Collect(0).WordsCopied
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word-copied")
}

// BenchmarkCollectScatteredList is the worst case for the chase's
// source-segment cache: each iteration builds a 512-pair list whose
// pairs lie one to a generation-0 segment, each followed by 255 garbage
// conses (untimed), so every step of the chase leaves the segment of
// the step before. It is collected into generation 1 — 1 024 words
// copied, 512 from-space segments freed — then dropped.
func BenchmarkCollectScatteredList(b *testing.B) {
	h := heap.NewDefault()
	root := h.NewRoot(obj.Nil)
	var words uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root.Set(obj.Nil)
		h.Collect(1)
		for k := 0; k < 512; k++ {
			root.Set(h.Cons(obj.FromFixnum(int64(k)), root.Get()))
			for j := 0; j < 255; j++ {
				h.Cons(obj.False, obj.Nil)
			}
		}
		b.StartTimer()
		words += h.Collect(0).WordsCopied
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word-copied")
}

// BenchmarkCollectGen0 is a young collection with nothing young
// surviving: 1 000 dead pairs allocated (timed) beside a tenured
// 10 000-pair list, then a collection of generation 0, which copies
// nothing and reaches no tenured pair.
func BenchmarkCollectGen0(b *testing.B) {
	h := heap.NewDefault()
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 10000; i++ {
		lst.Set(h.Cons(obj.FromFixnum(int64(i)), lst.Get()))
	}
	h.Collect(h.MaxGeneration())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 1000; k++ {
			h.Cons(obj.FromFixnum(int64(k)), obj.Nil)
		}
		h.Collect(0)
	}
}

// BenchmarkCollectTraceOverhead is BenchmarkCollectGen0 three ways:
// tracing disabled (the default — the per-phase clocks always run, but
// no event is materialized), the trace ring enabled, and a trace
// callback installed. The phase clocks cannot be turned off, so
// "disabled" is the untraced collector and the ring and func variants
// bound the marginal cost of turning tracing on.
func BenchmarkCollectTraceOverhead(b *testing.B) {
	setup := func() *heap.Heap {
		h := heap.NewDefault()
		lst := h.NewRoot(obj.Nil)
		for i := 0; i < 10000; i++ {
			lst.Set(h.Cons(obj.FromFixnum(int64(i)), lst.Get()))
		}
		h.Collect(h.MaxGeneration())
		return h
	}
	// pause-ns/gc counts the timed collections only, not setup's full
	// collection of the tenured list.
	run := func(b *testing.B, h *heap.Heap) {
		pause, gcs := h.Stats.TotalPause, h.Stats.Collections
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 1000; k++ {
				h.Cons(obj.FromFixnum(int64(k)), obj.Nil)
			}
			h.Collect(0)
		}
		b.StopTimer()
		b.ReportMetric(float64((h.Stats.TotalPause-pause).Nanoseconds())/float64(h.Stats.Collections-gcs),
			"pause-ns/gc")
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, setup())
	})
	b.Run("ring", func(b *testing.B) {
		h := setup()
		h.EnableTrace(64)
		run(b, h)
	})
	b.Run("func", func(b *testing.B) {
		h := setup()
		var sink int64
		h.SetTraceFunc(func(ev heap.TraceEvent) { sink += ev.PauseNS })
		run(b, h)
	})
}

// BenchmarkBarrieredStore is the write barrier on its hit path: a young
// pointer stored into a tenured pair, whose segment is marked by the
// first store.
func BenchmarkBarrieredStore(b *testing.B) {
	h := heap.NewDefault()
	old := h.NewRoot(h.Cons(obj.Nil, obj.Nil))
	h.Collect(0)
	h.Collect(1)
	young := h.NewRoot(h.Cons(obj.Nil, obj.Nil))
	o, y := old.Get(), young.Get()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SetCar(o, y)
	}
}

// The header accessors the VM calls per instruction: each resolves its
// object's segment once, and BenchmarkVectorRef reads across a
// large vector's two segments.
//
//	go test -run '^$' -bench 'VectorRef|RecordRef|SymbolValue' ./internal/heap/

// accessorSink keeps the accessor benchmarks' reads from being
// optimized away.
var accessorSink obj.Value

// BenchmarkVectorRef reads every element of a 600-element vector, a
// large object whose run spans two segments, in turn.
func BenchmarkVectorRef(b *testing.B) {
	h := heap.NewDefault()
	v := h.MakeVector(600, obj.False)
	for i := 0; i < b.N; i++ {
		accessorSink = h.VectorRef(v, i%600)
	}
}

// BenchmarkRecordRef reads the fields of a compiled-closure-sized
// record ([code, env, name]) in turn.
func BenchmarkRecordRef(b *testing.B) {
	h := heap.NewDefault()
	r := h.MakeRecord(obj.True, 3)
	for i := 0; i < b.N; i++ {
		accessorSink = h.RecordRef(r, i%3)
	}
}

// BenchmarkSymbolValue is a global variable reference.
func BenchmarkSymbolValue(b *testing.B) {
	h := heap.NewDefault()
	s := h.MakeSymbol(h.MakeString("x"))
	h.SetSymbolValue(s, obj.True)
	for i := 0; i < b.N; i++ {
		accessorSink = h.SymbolValue(s)
	}
}
