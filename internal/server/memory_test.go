package server

import (
	"fmt"
	"runtime"
	"testing"
)

// Tests for what a standing session costs in memory: a template-booted
// session shares the whole template for as long as it lives (the
// prelude sits in the static generation, which no collection of the
// session's copies), and what it holds privately does not grow with
// the requests it has served (retired segment arrays go back to the
// clone family's pool instead of staying on the session's free list).

// steadyDefs is the request handler of bench's serve-steady workload:
// (work k n) replaces the session's state with a fresh n-element list.
// (fill k n) allocates as much and keeps as much through a handful of
// primitive calls, for the test that needs thousands of requests.
const steadyDefs = `(begin
  (define port (open-session-port "steady.log"))
  (define res (session-alloc 0 64))
  (define state '())
  (define total 0)
  (define (build k n)
    (let loop ((i (- n 1)) (acc '()))
      (if (< i 0) acc (loop (- i 1) (cons (+ k i) acc)))))
  (define (sum l)
    (let loop ((l l) (s 0))
      (if (null? l) s (loop (cdr l) (+ s (car l))))))
  (define (work k n)
    (set! state (build k n))
    (set! total (+ total (sum state)))
    total)
  (define (fill k n)
    (set! state (reverse (append (vector->list (make-vector n k))
                                 (vector->list (make-vector n k)))))
    (set! total (+ total n))
    total)
  0)`

// serveRounds sends every session `rounds` requests to handler op,
// round-robin, through the synchronous drive.
func serveRounds(t *testing.T, srv *Server, log *replyLog, ids []SessionID, op string, from, rounds int) {
	t.Helper()
	for r := from; r < from+rounds; r++ {
		for _, id := range ids {
			mustSend(t, srv, id, fmt.Sprintf("(%s %d %d)", op, r*200, 50+(r*37+int(id)*11)%151))
		}
		srv.Poll()
	}
	for _, id := range ids {
		if _, err := log.last(id); err != nil {
			t.Fatalf("session %d: %v", id, err)
		}
	}
}

func liveHeapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSessionsKeepSharingTemplate: two full radix cycles of automatic
// collections (16 each, a dozen or so requests a collection) leave every
// session still aliasing every template segment, with no copy-on-write
// fault taken — and the heap verifies.
func TestSessionsKeepSharingTemplate(t *testing.T) {
	log := newReplyLog()
	srv := syncServer(t, log)
	var ids []SessionID
	for i := 0; i < 4; i++ {
		ids = append(ids, mustRegister(t, srv, steadyDefs))
	}
	srv.Poll()
	serveRounds(t, srv, log, ids, "work", 0, 500)
	want := srv.tpl.HeapTemplate().Segments()
	for _, id := range ids {
		h := srv.Session(id).Heap()
		if n := h.Stats.Collections; n < 40 {
			t.Fatalf("session %d ran %d collections, want two radix cycles' worth", id, n)
		}
		if got := h.SharedSegments(); got != want {
			t.Errorf("session %d shares %d template segments, want all %d", id, got, want)
		}
		if got := h.COWCopies(); got != 0 {
			t.Errorf("session %d took %d copy-on-write faults, want 0", id, got)
		}
		if errs := h.Verify(); len(errs) > 0 {
			t.Errorf("session %d: Verify: %v", id, errs[0])
		}
	}
}

// TestSessionMemoryFlatInRequests: the Go heap a standing population
// holds is the same over its 48th to 143rd requests per session as over
// its 144th to 239th. What one session holds swings by a few segments
// over its radix cycles (and the family's pool by its 64 arrays), and
// the population's total drifts by a few percent over some hundred
// rounds as the sessions' collection phases drift apart and back. So
// the sessions start staggered by collection count, session i after i
// collections of its own; a session's one-time growth (its tables and
// lists reaching their working size) lands in 32 warm-up rounds before
// either window; and each figure is the mean over a window of 96 rounds,
// sampled every fourth. The test measures flatness, not when that
// growth lands or where in the drift a short window falls.
func TestSessionMemoryFlatInRequests(t *testing.T) {
	log := newReplyLog()
	srv := New(Config{}) // no OnReply: a reply log would grow with the requests
	base := liveHeapAlloc()
	var ids []SessionID
	for i := 0; i < 64; i++ {
		ids = append(ids, mustRegister(t, srv, steadyDefs))
	}
	srv.Poll()
	for i, id := range ids {
		h := srv.Session(id).Heap()
		for r := 0; h.Stats.Collections < uint64(i); r++ {
			serveRounds(t, srv, log, ids[i:i+1], "fill", r, 1)
		}
	}
	const warm, window = 32, 96
	round := 16
	serveRounds(t, srv, log, ids, "fill", round, warm)
	round += warm
	perSession := func() float64 {
		var sum float64
		for end := round + window; round < end; round++ {
			serveRounds(t, srv, log, ids, "fill", round, 1)
			if round%4 == 3 {
				sum += float64(liveHeapAlloc()-base) / float64(len(ids)) / 1024
			}
		}
		return sum / (window / 4)
	}
	first, second := perSession(), perSession()
	t.Logf("per session: %.1f KiB over requests %d-%d, %.1f KiB over %d-%d",
		first, warm+16, warm+16+window-1, second, warm+16+window, warm+16+2*window-1)
	if d := (second - first) / first; d > 0.03 || d < -0.03 {
		t.Errorf("memory per session moved %.1f%% between the two windows (%.1f -> %.1f KiB)",
			100*d, first, second)
	}
	runtime.KeepAlive(srv)
}

// TestCompiledCodeIsCollected: a session's requests are compiled, and
// compiled code is heap data that nothing roots once it has run. A
// thousand requests that each compile a top-level form, a redefined
// procedure, a case-lambda and an applied lambda leave the session's
// live objects and the process's Go heap where they were, within 3 %.
func TestCompiledCodeIsCollected(t *testing.T) {
	var bad error
	want := "0" // the init script's reply
	srv := New(Config{OnReply: func(id SessionID, reply string, err error) {
		if err == nil && reply != want {
			err = fmt.Errorf("reply %q, want %q", reply, want)
		}
		if err != nil && bad == nil {
			bad = err
		}
	}})
	id := mustRegister(t, srv, "0")
	srv.Poll()
	h := srv.Session(id).Heap()
	serve := func(from, n int) {
		for i := from; i < from+n; i++ {
			want = fmt.Sprint(3 * i)
			mustSend(t, srv, id, fmt.Sprintf(`(begin
			  (define (handler x) (+ x %d))
			  (define pick (case-lambda [(a) a] [(a b) (+ a b)]))
			  ((lambda (y) (pick (handler y) %d)) %d))`, i, i, i))
			srv.Poll()
		}
		if bad != nil {
			t.Fatal(bad)
		}
	}
	measure := func() (objects uint64, goHeap uint64) {
		h.Collect(h.MaxGeneration())
		census := h.Census()
		return census.Total().Objects, liveHeapAlloc()
	}
	serve(0, 100)
	objs0, go0 := measure()
	serve(100, 1000)
	objs1, go1 := measure()
	t.Logf("live objects %d -> %d, Go heap %d -> %d bytes", objs0, objs1, go0, go1)
	if d := float64(objs1) - float64(objs0); d > 0.03*float64(objs0) || d < -0.03*float64(objs0) {
		t.Errorf("live objects moved from %d to %d over 1000 compiled requests", objs0, objs1)
	}
	if d := float64(go1) - float64(go0); d > 0.03*float64(go0) || d < -0.03*float64(go0) {
		t.Errorf("Go heap moved from %d to %d bytes over 1000 compiled requests", go0, go1)
	}
	runtime.KeepAlive(srv)
}

// TestTemplateCarriesNoRoots: the donor's own managers and mailbox are
// released before the capture, so clones inherit no root handle — in a
// static generation nothing would ever reclaim what one pinned.
func TestTemplateCarriesNoRoots(t *testing.T) {
	srv := syncServer(t, nil)
	mustRegister(t, srv, "")
	_, roots, err := srv.tpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range roots {
		if r != nil {
			t.Errorf("template root slot %d is live", i)
		}
	}
}

// TestDrainReachesProgramTenuredResources: a program that tenures its
// own data with an explicit full collection puts it where the first
// drain pass does not look; the second pass collects every generation
// and the port is still reclaimed through its guardian.
func TestDrainReachesProgramTenuredResources(t *testing.T) {
	log := newReplyLog()
	srv := syncServer(t, log)
	id := mustRegister(t, srv, "")
	evalIn(t, srv, log, id, `(begin (define p (open-session-port "t.log")) (collect 99) 'ok)`)
	if err := srv.Disconnect(id); err != nil {
		t.Fatal(err)
	}
	srv.Poll()
	recs := srv.ReclaimRecords()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if r := recs[0]; r.Ports != 1 || r.LeakedPorts != 0 || r.Collections != 2 {
		t.Fatalf("reclaim record %+v, want the port reclaimed by the second pass", r)
	}
}
