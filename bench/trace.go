package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/heap"
)

// Spans are recorded by the harness around its own calls into a layer
// (the program itself is not instrumented). One tracer belongs to one
// goroutine, so recording takes no lock; the tracers of a run are
// merged when the span file is written.

// spanName identifies the layer call a span brackets.
type spanName uint8

const (
	spOp spanName = iota // one operation of the workload: the root of its spans
	spServerRegister
	spServerRequest // Send -> reply received
	spServerDisconnect
	spSchemeEval
	spHeapAlloc   // one allocation batch (a list, a vector, a record)
	spHeapStore   // one barriered store into a tenured object
	spHeapRead    // reading back tenured data the op replaces
	spHeapCollect // CollectAuto; its phases are child spans
	spGuardianRegister
	spGuardianGet
	spTableAccess
	spPortsClose
	spExtresRelease
	spTemplateClone
	spHeapPhase0 // first of heap.NumPhases phase spans
	numSpanNames = spHeapPhase0 + spanName(heap.NumPhases)
)

var spanNames = func() [numSpanNames]string {
	var n [numSpanNames]string
	n[spOp] = "op"
	n[spServerRegister] = "server.Register"
	n[spServerRequest] = "server.Send->reply"
	n[spServerDisconnect] = "server.Disconnect"
	n[spSchemeEval] = "scheme.EvalString"
	n[spHeapAlloc] = "heap.alloc"
	n[spHeapStore] = "heap.barrier.store"
	n[spHeapRead] = "heap.read"
	n[spHeapCollect] = "heap.CollectAuto"
	for i, p := range heap.PhaseNames() {
		n[int(spHeapPhase0)+i] = "heap.collect." + p
	}
	n[spGuardianRegister] = "core.Guardian.Register"
	n[spGuardianGet] = "core.Guardian.Get"
	n[spTableAccess] = "core.GuardedTable.Access"
	n[spPortsClose] = "ports.CloseNextDropped"
	n[spExtresRelease] = "extres.ReleaseNext"
	n[spTemplateClone] = "heap.CloneFromTemplate"
	return n
}()

type span struct {
	name   spanName
	parent int32 // index in the same tracer's kept spans, -1 for a root
	op     int64
	start  int64 // ns since the run's base time
	end    int64
	child  int64 // ns of this span covered by its direct children
}

// openSpan is a span that has begun and not ended. kept is its index
// in tracer.spans, or -1 when the span buffer was full at its start.
type openSpan struct {
	name  spanName
	kept  int32
	op    int64
	start int64
	child int64
}

// spanTotals accumulates every span of one name, kept or not, so the
// per-layer times do not depend on the span buffer's capacity.
type spanTotals struct {
	n     int64
	total int64 // ns, children included
	self  int64 // ns, children excluded
}

// maxSpans bounds the spans a tracer keeps for the span file and the
// span percentiles (48 B each); later spans count in the totals only.
const maxSpans = 1 << 18

type tracer struct {
	on     bool
	base   time.Time
	stack  []openSpan
	spans  []span
	totals [numSpanNames]spanTotals
	// pairNS is the measured cost of one empty begin/end pair. About
	// half of it falls between the two clock readings, so the
	// nanosecond-scale layer metrics subtract half (insideNS).
	pairNS float64
}

func newTracer(base time.Time) *tracer {
	// The span buffer grows on demand: an untraced run keeps none, so
	// it does not show in live_mb.
	t := &tracer{base: base, stack: make([]openSpan, 0, 8)}
	t.on = true
	const reps = 20000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		t.end(t.begin(spOp, 0))
	}
	t.pairNS = float64(time.Since(t0).Nanoseconds()) / reps
	t.reset()
	t.on = false
	return t
}

func (t *tracer) reset() {
	t.stack = t.stack[:0]
	t.spans = nil
	t.totals = [numSpanNames]spanTotals{}
}

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// begin opens a span under the innermost open span and returns its
// handle, or -1 when tracing is off.
func (t *tracer) begin(name spanName, op int64) int32 {
	if !t.on {
		return -1
	}
	return t.open(name, op, t.now())
}

func (t *tracer) open(name spanName, op, start int64) int32 {
	parent := int32(-1)
	keep := len(t.spans) < maxSpans
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].kept
		keep = keep && parent >= 0
	}
	kept := int32(-1)
	if keep {
		kept = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: start})
	}
	t.stack = append(t.stack, openSpan{name: name, kept: kept, op: op, start: start})
	return int32(len(t.stack) - 1)
}

// end closes the span begin returned h for; it must be the innermost
// open span.
func (t *tracer) end(h int32) {
	if h < 0 {
		return
	}
	t.closeAt(h, t.now())
}

func (t *tracer) closeAt(h int32, end int64) {
	if int(h) != len(t.stack)-1 {
		panic("bench: spans closed out of order")
	}
	s := t.stack[h]
	t.stack = t.stack[:h]
	d := end - s.start
	tot := &t.totals[s.name]
	tot.n++
	tot.total += d
	tot.self += d - s.child
	if h > 0 {
		t.stack[h-1].child += d
	}
	if s.kept >= 0 {
		t.spans[s.kept].end = end
		t.spans[s.kept].child = s.child
	}
}

// child records an already-timed child of the innermost open span
// (the collector's phases, taken from its report).
func (t *tracer) child(name spanName, op, start, dur int64) {
	if !t.on {
		return
	}
	t.closeAt(t.open(name, op, start), start+dur)
}

// collectSpan runs one automatic collection inside a span whose
// children are the collector's phases as its report times them, laid
// end to end from the span's start.
func (t *tracer) collectSpan(op int64, collect func() *heap.CollectionReport) *heap.CollectionReport {
	sp := t.begin(spHeapCollect, op)
	rep := collect()
	if sp >= 0 && rep != nil {
		at := t.stack[sp].start
		for p, d := range rep.Phases {
			t.child(spHeapPhase0+spanName(p), op, at, d.Nanoseconds())
			at += d.Nanoseconds()
		}
	}
	t.end(sp)
	return rep
}

// durations returns the recorded durations of every span of one name.
func (t *tracer) durations(name spanName, into []int64) []int64 {
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name {
			into = append(into, s.end-s.start)
		}
	}
	return into
}

// insideNS is the part of a span's measured duration that is the
// tracer's own work.
func (t *tracer) insideNS() float64 { return t.pairNS / 2 }

// netNS is the time the spans of one name took, less the tracer's own
// share of it, divided over calls (the number of spans when calls is
// 0). A result below the clock's resolution reads 0.
func netNS(ts []*tracer, name spanName, calls float64) float64 {
	tot := sumTotals(ts, name)
	if tot.n == 0 {
		return 0
	}
	if calls == 0 {
		calls = float64(tot.n)
	}
	v := (float64(tot.total) - float64(tot.n)*ts[0].insideNS()) / calls
	if v < 0 {
		v = 0
	}
	return v
}

func sumTotals(ts []*tracer, name spanName) spanTotals {
	var s spanTotals
	for _, t := range ts {
		s.n += t.totals[name].n
		s.total += t.totals[name].total
		s.self += t.totals[name].self
	}
	return s
}

// spanRecord is one line of the span file.
type spanRecord struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
	Parent  int64  `json:"parent"` // id of the causing span, -1 for an op
	Op      int64  `json:"op"`
	Thread  int    `json:"thread"`
}

// writeSpans writes the kept spans of every tracer as JSON lines; ids
// are unique across tracers.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var base int64
	for ti, t := range ts {
		for i := range t.spans {
			s := &t.spans[i]
			rec := spanRecord{ID: base + int64(i), Name: spanNames[s.name], StartNS: s.start, EndNS: s.end,
				SelfNS: s.end - s.start - s.child, Parent: -1, Op: s.op, Thread: ti}
			if s.parent >= 0 {
				rec.Parent = base + int64(s.parent)
			}
			if err := enc.Encode(&rec); err != nil {
				f.Close()
				return err
			}
		}
		base += int64(len(t.spans))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
