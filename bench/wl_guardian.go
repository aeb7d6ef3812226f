package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obj"
)

// heap-guardian is the paper's own workload: resources whose clean-up
// is driven by a guardian. Set-up registers a large population of
// records with the guardian, keeps them reachable from a heap list and
// tenures them, so "a tenured registration costs young collections
// nothing" is a number. One operation is eight resource lifecycles:
// allocate a small record, register it, enter one in four into a
// guarded hash table (weak pairs plus the table's own guardian), use
// the resource (a scratch list that dies at once, which is what brings
// the next collection), hold it in a 1 024-entry FIFO so that some
// registrations are promoted before they die, and drop the oldest.
// After each collection the guardian is drained with Get and each
// returned record is checked and cleaned up.
const (
	guardTenured   = 20000
	guardFIFO      = 1024
	guardPerOp     = 24
	guardScratch   = 64  // conses of scratch work per lifecycle
	guardBatchOps  = 352 // ~8 400 lifecycles and ~35 collections
	guardWarmOps   = 23000
	guardTableSize = 256

	recID    = 0 // record fields
	recStamp = 1 // collection count when the harness dropped the record
	recTime  = 2 // ns since the run's base when it was dropped (traced batches)
	recN     = 3
)

// Resource states, one byte per id.
const (
	stHeld byte = iota + 1
	stDropped
	stReturned
)

// guardOp is one generated operation: which of its lifecycles enter
// the guarded table.
type guardOp struct {
	Tabled uint32 // bit j set: lifecycle j goes into the table
}

type guardGen struct{ r *rand.Rand }

func (g *guardGen) next() guardOp {
	var op guardOp
	for j := 0; j < guardPerOp; j++ {
		if g.r.Intn(4) == 0 {
			op.Tabled |= 1 << j
		}
	}
	return op
}

type heapGuardian struct {
	e       *env
	h       *heap.Heap
	g       *core.Guardian
	tbl     *core.GuardedTable
	fifo    *heap.Root // vector of guardFIFO records
	tenured *heap.Root // list of the tenured registered records
	gen     guardGen
	tr      *tracer
	c       opCounts
	seq     int64
	pos     int

	// ids are handed out in order; tenured records take the first
	// nTenured. state is chunked so that a chunk whose resources have
	// all come back can be released.
	nTenured int64
	nextID   int64
	state    [][]byte // chunk i covers ids [i*stateChunk, (i+1)*stateChunk)
	open     []int32  // per chunk: ids not yet returned
	returned int64
	checking bool // check() is draining

	// Traced runs only:
	dragGCs []int64 // histogram: collections between the drop of a record and its Get
	dragNS  []int64 // the same in ns, for one record in eight dropped in a traced batch
	backlog []int64 // guardian tconc length found after each collection

	mark                   heapMark // counters at the start of the measured phase
	stores, accesses, gets int64    // FIFO stores, table accesses and guardian Gets so far
	accesses0, gets0       int64
}

const stateChunk = 1 << 14

func newHeapGuardian(e *env) workload { return &heapGuardian{e: e} }

func (w *heapGuardian) stateOf(id int64) *byte {
	ch := int(id / stateChunk)
	for len(w.state) <= ch {
		w.state = append(w.state, make([]byte, stateChunk))
		w.open = append(w.open, 0)
	}
	if w.state[ch] == nil {
		return nil
	}
	return &w.state[ch][id%stateChunk]
}

func (w *heapGuardian) setup() error {
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
	w.tr = w.e.tracer(0)
	w.gen = guardGen{r: newRand(w.e.o.seed)}
	w.g = core.NewGuardian(h)
	w.tbl = core.NewGuardedTable(h, guardTableSize, func(h *heap.Heap, key obj.Value) uint64 {
		return uint64(h.RecordRef(key, recID).FixnumValue())
	})
	w.fifo = h.NewRoot(h.MakeVector(guardFIFO, obj.False))
	w.tenured = h.NewRoot(obj.Nil)

	n := guardTenured
	if w.e.o.tenured >= 0 {
		n = w.e.o.tenured
	}
	n = w.e.o.scaled(n, 0)
	for i := 0; i < n; i++ {
		rec := w.newRecord()
		w.g.Register(rec)
		w.tenured.Set(h.Cons(rec, w.tenured.Get()))
		if h.CollectPending() {
			h.CollectAuto()
		}
	}
	w.nTenured = w.nextID
	for g := 0; g <= h.MaxGeneration(); g++ {
		h.Collect(g)
	}
	if _, ok := w.g.Get(); ok {
		return fmt.Errorf("a reachable tenured record came back from the guardian")
	}
	for i := w.e.o.scaled(guardWarmOps, 256); i > 0; i-- {
		w.op()
	}
	w.mark = markHeap(h, w.stores)
	w.accesses0, w.gets0 = w.accesses, w.gets
	w.dragGCs, w.dragNS, w.backlog = nil, nil, nil
	return nil
}

// newRecord allocates a resource record with the next id.
func (w *heapGuardian) newRecord() obj.Value {
	id := w.nextID
	w.nextID++
	rec := w.h.MakeRecord(obj.FromFixnum(1), recN)
	w.h.RecordSet(rec, recID, obj.FromFixnum(id))
	st := w.stateOf(id)
	*st = stHeld
	w.open[id/stateChunk]++
	return rec
}

func (w *heapGuardian) op() {
	h, tr := w.h, w.tr
	op := w.gen.next()
	seq := w.seq
	w.seq++
	w.c.attempted++
	fails := w.c.failed
	root := tr.begin(spOp, seq)

	// The lifecycles run side by side, one span a step. Nothing
	// collects before the safe point at the end, so the records can sit
	// in Go variables meanwhile.
	var recs [guardPerOp]obj.Value
	sp := tr.begin(spHeapAlloc, seq)
	for j := range recs {
		recs[j] = w.newRecord()
	}
	tr.end(sp)

	sp = tr.begin(spGuardianRegister, seq)
	for _, rec := range recs {
		w.g.Register(rec)
	}
	tr.end(sp)
	if w.e.o.fault == "double-register" && seq%64 == 0 {
		w.g.Register(recs[0])
	}

	if op.Tabled != 0 {
		sp = tr.begin(spTableAccess, seq)
		for j, rec := range recs {
			if op.Tabled&(1<<j) == 0 {
				continue
			}
			id := h.RecordRef(rec, recID)
			if got := w.tbl.Access(rec, id); got != id {
				w.c.fail("op %d: guarded table returned %v for key %v", seq, got, id)
			}
			w.accesses++
		}
		tr.end(sp)
	}

	// Use the resources: work whose garbage brings the next collection.
	sp = tr.begin(spHeapAlloc, seq)
	for range recs {
		scratch := obj.Nil
		for k := 0; k < guardScratch; k++ {
			scratch = h.Cons(obj.FromFixnum(int64(k)), scratch)
		}
	}
	tr.end(sp)

	// Hold them in the FIFO and drop the oldest.
	fifo := w.fifo.Get()
	sp = tr.begin(spHeapRead, seq)
	now := obj.False
	if tr.on {
		now = obj.FromFixnum(tr.now())
	}
	stamp := obj.FromFixnum(int64(h.Stats.Collections))
	for j := range recs {
		old := h.VectorRef(fifo, (w.pos+j)%guardFIFO)
		if old == obj.False {
			continue
		}
		oid := h.RecordRef(old, recID).FixnumValue()
		h.RecordSet(old, recStamp, stamp)
		h.RecordSet(old, recTime, now)
		if st := w.stateOf(oid); st == nil || *st != stHeld {
			w.c.fail("op %d: resource %d dropped twice", seq, oid)
		} else {
			*st = stDropped
		}
	}
	tr.end(sp)
	sp = tr.begin(spHeapStore, seq)
	for _, rec := range recs {
		h.VectorSet(fifo, w.pos, rec)
		w.pos = (w.pos + 1) % guardFIFO
	}
	tr.end(sp)
	w.stores += guardPerOp

	if h.CollectPending() {
		tr.collectSpan(seq, h.CollectAuto)
		if w.e.o.trace {
			w.backlog = append(w.backlog, int64(w.g.Pending()))
		}
		w.drain(seq)
	}
	tr.end(root)
	if w.c.failed > fails {
		w.c.failed = fails + 1 // one failed operation, however many of its checks missed
	}
}

// drain retrieves every record the collector has proven inaccessible
// and runs its clean-up. Each must be one the harness has dropped, and
// must come back once.
func (w *heapGuardian) drain(seq int64) {
	h, tr := w.h, w.tr
	sp := tr.begin(spGuardianGet, seq)
	defer tr.end(sp)
	for {
		rec, ok := w.g.Get()
		w.gets++
		if !ok {
			return
		}
		id := h.RecordRef(rec, recID).FixnumValue()
		st := w.stateOf(id)
		switch {
		case id < w.nTenured:
			w.c.fail("op %d: tenured resource %d came back while reachable", seq, id)
			continue
		case st == nil || *st == stReturned:
			w.c.fail("op %d: resource %d came back twice", seq, id)
			continue
		case *st != stDropped:
			w.c.fail("op %d: resource %d came back while held", seq, id)
			continue
		}
		*st = stReturned
		w.returned++
		if w.e.o.trace && !w.checking {
			d := int(int64(h.Stats.Collections) - h.RecordRef(rec, recStamp).FixnumValue())
			for len(w.dragGCs) <= d {
				w.dragGCs = append(w.dragGCs, 0)
			}
			w.dragGCs[d]++
			if t := h.RecordRef(rec, recTime); tr.on && id%8 == 0 && t.IsFixnum() {
				w.dragNS = append(w.dragNS, tr.now()-t.FixnumValue())
			}
		}
		ch := id / stateChunk
		if w.open[ch]--; w.open[ch] == 0 && (ch+1)*stateChunk <= w.nextID {
			w.state[ch] = nil // every resource of the chunk has been cleaned up
		}
	}
}

func (w *heapGuardian) batchOps() int { return w.e.o.scaled(guardBatchOps, 64) }

func (w *heapGuardian) runBatch(lat []int64) []int64 {
	for i := w.batchOps(); i > 0; i-- {
		t0 := nanotime()
		w.op()
		lat = append(lat, nanotime()-t0)
	}
	return lat
}

func (w *heapGuardian) quiesce() error { return nil }

// check drops what the FIFO still holds, collects everything, and
// requires every resource ever registered by an operation to have come
// back exactly once, the tenured ones never, and a clean heap.
func (w *heapGuardian) check() {
	h := w.h
	fifo := w.fifo.Get()
	for i := 0; i < guardFIFO; i++ {
		if old := h.VectorRef(fifo, i); old != obj.False {
			if st := w.stateOf(h.RecordRef(old, recID).FixnumValue()); st != nil {
				*st = stDropped
			}
			h.RecordSet(old, recStamp, obj.FromFixnum(int64(h.Stats.Collections)))
			h.VectorSet(fifo, i, obj.False)
		}
	}
	w.checking = true // the forced collections are not the workload's drag
	for i := 0; i < 2; i++ {
		h.Collect(h.MaxGeneration())
		w.drain(w.seq)
	}
	if want := w.nextID - w.nTenured; w.returned != want {
		w.c.fail("%d of %d registered resources came back from the guardian", w.returned, want)
	}
	if n := h.ListLength(w.tenured.Get()); int64(n) != w.nTenured {
		w.c.fail("%d of %d tenured records still listed", n, w.nTenured)
	}
	if n := w.tbl.Len(); n != 0 {
		w.c.fail("guarded table still has %d entries after every key died", n)
	}
	for _, err := range h.Verify() {
		w.c.fail("Verify: %v", err)
	}
}

func (w *heapGuardian) layers(m map[string]float64, ph *phase) {
	ph.mutators = 1
	ts := w.e.tracers
	w.mark.emitHeap(m, ph, w.h, ts, w.stores, false)
	// A span here covers one step of a whole operation; the traced share
	// of the calls made in the phase divides it.
	tracedShare := ratio(float64(ph.tracedOps), float64(ph.ops))
	perCall := func(name spanName, calls int64) float64 {
		return netNS(ts, name, float64(calls)*tracedShare)
	}
	m["core.guardian.register_ns"] = perCall(spGuardianRegister, w.stores-w.mark.stores)
	m["core.guardian.get_ns"] = perCall(spGuardianGet, w.gets-w.gets0)
	m["core.table.access_ns"] = perCall(spTableAccess, w.accesses-w.accesses0)
	if len(w.backlog) > 0 {
		s := sortedCopy(w.backlog)
		m["core.tconc.backlog_p50"] = float64(percentile(s, 50))
		m["core.tconc.backlog_max"] = float64(s[len(s)-1])
	}
	m["core.drag_p50_collections"] = histPercentile(w.dragGCs, 50)
	m["core.drag_p99_collections"] = histPercentile(w.dragGCs, 99)
	m["core.drag_p50_us"] = pctUS(w.dragNS, 50)
	m["core.drag_p99_us"] = pctUS(w.dragNS, 99)
}

func (w *heapGuardian) counts() (int64, int64, []string) { return w.c.attempted, w.c.failed, w.c.errs }

func (w *heapGuardian) close() {}
