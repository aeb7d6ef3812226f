package main

import (
	"math/rand"
	"sync"

	"repro/internal/heap"
	"repro/internal/obj"
)

// heap-young and heap-mutators: the allocation path, the write barrier
// and the copying core, with no guardians and no weak pairs. One
// operation builds twelve lists of 64-192 conses (about 3 100 words, so
// one operation in ~10 crosses the generation-0 trigger and the 95th
// percentile of the latency is a collection pause), stores one list in
// four into a tenured vector (an old-to-young store: barrier hit, then
// a dirty cell for the next collection to scan) after checking the list
// it replaces, and one operation in eight also allocates a 64-slot
// vector and a string. heap-young drives the
// direct Heap API from one goroutine; heap-mutators splits the same
// kind of stream over registered Mutators, one goroutine each.
const (
	youngSlots    = 512 // tenured vector slots: a live set of ~1 MB
	youngLists    = 12  // lists per operation
	youngBatchOps = 672 // ~64 collections: one full radix-4 cycle of the four generations
	youngWarmOps  = 26000
	mutBatchOps   = 672
	mutWarmOps    = 24000
	mutDefault    = 2
)

// youngOp is one generated operation.
type youngOp struct {
	Len   [youngLists]int32 // conses per list
	Slot  [youngLists]int32 // tenured slot the list is stored into, -1 to drop it
	Extra bool              // also allocate a vector and a string
}

// youngGen draws operations whose stores fall in slots [lo, lo+n).
type youngGen struct {
	r     *rand.Rand
	lo, n int
}

func (g *youngGen) next() youngOp {
	var op youngOp
	for i := range op.Len {
		op.Len[i] = 64 + int32(g.r.Intn(129))
		op.Slot[i] = -1
		if g.r.Intn(4) == 0 {
			op.Slot[i] = int32(g.lo + g.r.Intn(g.n))
		}
	}
	op.Extra = g.r.Intn(8) == 0
	return op
}

// listShadow is what the generator knows about the list in a slot: n
// fixnums base, base+1, ...
type listShadow struct {
	n    int32
	base int64
}

// youngWorker runs one goroutine's share of the stream.
type youngWorker struct {
	h      *heap.Heap
	m      *heap.Mutator // nil: the direct Heap API
	vec    *heap.Root    // the tenured vector, shared by all workers
	gen    youngGen
	shadow []listShadow // indexed by slot; a worker touches only its own range
	seq    int64
	stores int64
	id     int64 // worker index, keeps list contents distinct
	tr     *tracer
	c      opCounts
	lat    []int64
}

// checkSlot walks the list in a slot and compares it with the shadow.
func (w *youngWorker) checkSlot(vec obj.Value, slot int) bool {
	h := w.h
	sh := w.shadow[slot]
	var n int32
	var sum int64
	p := h.VectorRef(vec, slot)
	for p.IsPair() {
		sum += h.Car(p).FixnumValue()
		p = h.Cdr(p)
		n++
	}
	k := int64(sh.n)
	return p == obj.Nil && n == sh.n && sum == k*sh.base+k*(k-1)/2
}

// checkHead compares only the first element of the list in a slot.
func (w *youngWorker) checkHead(vec obj.Value, slot int) bool {
	sh := w.shadow[slot]
	p := w.h.VectorRef(vec, slot)
	if sh.n == 0 {
		return p == obj.Nil
	}
	return p.IsPair() && w.h.Car(p) == obj.FromFixnum(sh.base)
}

func (w *youngWorker) op() {
	h, m, tr := w.h, w.m, w.tr
	op := w.gen.next()
	seq := w.seq
	w.seq++
	w.c.attempted++
	ok := true
	root := tr.begin(spOp, seq)
	for i := 0; i < youngLists; i++ {
		n := int(op.Len[i])
		base := ((w.id<<40|seq)*youngLists + int64(i)) * 256
		sp := tr.begin(spHeapAlloc, seq)
		lst := obj.Nil
		if m != nil {
			for k := n - 1; k >= 0; k-- {
				lst = m.Cons(obj.FromFixnum(base+int64(k)), lst)
			}
		} else {
			for k := n - 1; k >= 0; k-- {
				lst = h.Cons(obj.FromFixnum(base+int64(k)), lst)
			}
		}
		tr.end(sp)
		if s := int(op.Slot[i]); s >= 0 {
			// No allocation between the last cons and the store, so lst
			// cannot have moved even with mutators registered.
			// Every list that is replaced is checked by its head, one in
			// eight by a full walk (all of them once more at the end):
			// walking each would make reading cold tenured memory a
			// third of the operation.
			vec := w.vec.Get()
			sp = tr.begin(spHeapRead, seq)
			if w.stores%8 == 0 {
				ok = w.checkSlot(vec, s) && ok
			} else {
				ok = w.checkHead(vec, s) && ok
			}
			tr.end(sp)
			sp = tr.begin(spHeapStore, seq)
			h.VectorSet(vec, s, lst)
			tr.end(sp)
			w.shadow[s] = listShadow{n: int32(n), base: base}
			w.stores++
		}
	}
	if op.Extra {
		sp := tr.begin(spHeapAlloc, seq)
		if m != nil {
			m.MakeVector(64, obj.Nil)
			m.MakeString("a string of a few dozen bytes, as a symbol name or a line of output")
		} else {
			h.MakeVector(64, obj.Nil)
			h.MakeString("a string of a few dozen bytes, as a symbol name or a line of output")
		}
		tr.end(sp)
	}
	// The safe point: nothing but the tenured vector is live here.
	switch {
	case m == nil:
		if h.CollectPending() {
			tr.collectSpan(seq, h.CollectAuto)
		}
	case h.Safepoint():
		// Collect, or park for the other mutator's collection; whose
		// phases they were is not known here, so no phase children.
		sp := tr.begin(spHeapCollect, seq)
		m.Checkpoint()
		tr.end(sp)
	}
	tr.end(root)
	if !ok {
		w.c.fail("op %d: a tenured list read back wrong", seq)
	}
}

// timedOps runs n operations, appending each one's latency to w.lat.
func (w *youngWorker) timedOps(n int) {
	for i := 0; i < n; i++ {
		t0 := nanotime()
		w.op()
		w.lat = append(w.lat, nanotime()-t0)
	}
}

// heapYoung is both workloads: mutators == 0 is heap-young.
type heapYoung struct {
	e        *env
	mutators int
	h        *heap.Heap
	workers  []*youngWorker
	mark     heapMark // counters at the start of the measured phase
}

func newHeapYoung(e *env) workload { return &heapYoung{e: e} }

func newHeapMutators(e *env) workload {
	n := e.o.mutators
	if n == 0 {
		n = mutDefault
	}
	return &heapYoung{e: e, mutators: n}
}

func (w *heapYoung) setup() error {
	cfg := heap.DefaultConfig()
	if w.e.o.workers != 0 {
		cfg.Workers = w.e.o.workers
	}
	h, err := heap.New(cfg)
	if err != nil {
		return err
	}
	w.h = h
	w.e.observe(h)
	vec := h.NewRoot(h.MakeVector(youngSlots, obj.Nil))
	for g := 0; g < h.MaxGeneration(); g++ {
		h.Collect(g) // tenure the vector: every store into it is old-to-young
	}
	shadow := make([]listShadow, youngSlots)
	n := w.mutators
	if n == 0 {
		n = 1
	}
	per := youngSlots / n
	for i := 0; i < n; i++ {
		yw := &youngWorker{h: h, vec: vec, shadow: shadow, id: int64(i), tr: w.e.tracer(i),
			gen: youngGen{r: newRand(w.e.o.seed*1000 + int64(i)), lo: i * per, n: per}}
		if w.mutators > 0 {
			yw.m = h.RegisterMutator()
			yw.m.Idle()
		}
		w.workers = append(w.workers, yw)
	}
	warm := youngWarmOps
	if w.mutators > 0 {
		warm = mutWarmOps
	}
	w.runOps(w.e.o.scaled(warm, 256))
	w.mark = markHeap(h, w.storeCount())
	return nil
}

func (w *heapYoung) storeCount() (n int64) {
	for _, yw := range w.workers {
		n += yw.stores
	}
	return n
}

// runOps splits n operations over the workers and waits for them. A
// mutator is idle (a standing safe point) whenever its goroutine is not
// running operations, so a finished worker never stalls a collection.
func (w *heapYoung) runOps(n int) {
	if w.mutators == 0 {
		yw := w.workers[0]
		yw.lat = yw.lat[:0]
		yw.timedOps(n)
		return
	}
	var wg sync.WaitGroup
	per := n / len(w.workers)
	for _, yw := range w.workers {
		wg.Add(1)
		go func(yw *youngWorker) {
			defer wg.Done()
			yw.lat = yw.lat[:0]
			yw.m.Active()
			yw.timedOps(per)
			yw.m.Idle()
		}(yw)
	}
	wg.Wait()
}

func (w *heapYoung) batchOps() int {
	if w.mutators > 0 {
		return w.e.o.scaled(mutBatchOps, 64)
	}
	return w.e.o.scaled(youngBatchOps, 64)
}

func (w *heapYoung) runBatch(lat []int64) []int64 {
	w.runOps(w.batchOps())
	for _, yw := range w.workers {
		lat = append(lat, yw.lat...)
	}
	return lat
}

func (w *heapYoung) quiesce() error { return nil }

func (w *heapYoung) check() {
	c := &w.workers[0].c
	w.close() // leave mutator mode: the checks read the heap directly
	vec := w.workers[0].vec.Get()
	for s := 0; s < youngSlots; s++ {
		if !w.workers[0].checkSlot(vec, s) {
			c.fail("slot %d: tenured list wrong at the end of the run", s)
		}
	}
	for _, err := range w.h.Verify() {
		c.fail("Verify: %v", err)
	}
}

func (w *heapYoung) layers(m map[string]float64, ph *phase) {
	ph.mutators = len(w.workers)
	w.mark.emitHeap(m, ph, w.h, w.e.tracers, w.storeCount(), true)
}

func (w *heapYoung) counts() (int64, int64, []string) {
	var c opCounts
	for _, yw := range w.workers {
		c.add(&yw.c)
	}
	return c.attempted, c.failed, c.errs
}

func (w *heapYoung) close() {
	for _, yw := range w.workers {
		if yw.m != nil {
			yw.m.Unregister()
			yw.m = nil
		}
	}
}
