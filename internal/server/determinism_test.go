package server

import (
	"fmt"
	"testing"
)

// deterministicScript is the fixed workload each session runs in the
// reclaim-order test: a mix of guarded opens, guarded allocs, explicit
// frees, dropped references, explicit collections, and inter-session
// messages — enough to populate both guardians several times over.
var deterministicScripts = []string{
	`(begin
	   (define held (open-session-port "held.tmp"))
	   (open-session-port "drop1.tmp")
	   (session-alloc 0 64)
	   (open-session-port "drop2.tmp")
	   (session-alloc 2 1)
	   (collect)
	   'phase1)`,
	`(begin
	   (define r (session-alloc 1 16))
	   (session-free r)
	   (session-alloc 0 8)
	   (let loop ((i 0) (acc '()))
	     (if (< i 120)
	         (loop (+ i 1) (cons (cons i acc) acc))
	         (set! held acc)))         ; drops the held port too
	   (collect)
	   (collect)
	   'phase2)`,
	`(begin
	   (send-message (+ (session-id) 0) '(note to self)) ; self-delivery
	   'phase3)`,
	`(begin
	   (let ((m (receive)))
	     (if m (message-done m)))
	   (collect)
	   'phase4)`,
}

// runDeterministicWorkload drives a fixed 3-session script schedule on
// a synchronous server and returns a rendering of every observable reclaim ordering: the
// per-session salvage logs (mid-life and drain, in order) and the
// final reclaim records.
func runDeterministicWorkload(t *testing.T) string {
	t.Helper()
	srv := New(Config{Heap: DefaultSessionHeapConfig()})

	const n = 3
	ids := make([]SessionID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, mustRegister(t, srv, ""))
	}
	// Interleave: each script phase runs on every session before the
	// next phase, with a Poll per enqueue — a fixed, replayable
	// schedule.
	for _, src := range deterministicScripts {
		for _, id := range ids {
			mustSend(t, srv, id, src)
			srv.Poll()
		}
	}

	out := ""
	for _, id := range ids {
		s := srv.Session(id)
		if s == nil {
			t.Fatalf("session %d missing", id)
		}
		out += fmt.Sprintf("session %d live-log %v opened %v alloced %v\n",
			id, s.ReclaimLog(), s.OpenedFDs(), s.AllocedIDs())
	}
	for _, id := range ids {
		if err := srv.Disconnect(id); err != nil {
			t.Fatalf("Disconnect(%d): %v", id, err)
		}
		srv.Poll()
	}
	for _, rec := range srv.ReclaimRecords() {
		out += fmt.Sprintf("session %d drained collections %d ports %d resources %d leaks %d/%d log %v\n",
			rec.ID, rec.Collections, rec.Ports, rec.Resources,
			rec.LeakedPorts, rec.LeakedResources, rec.Log)
	}
	return out
}

// TestServerReclaimOrderRepeatable: the same configuration twice gives
// the same logs — the schedule and the collector are both
// deterministic.
func TestServerReclaimOrderRepeatable(t *testing.T) {
	a := runDeterministicWorkload(t)
	b := runDeterministicWorkload(t)
	if a != b {
		t.Fatalf("same config diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestSessionHeapConfigHonored: the server really hands each session
// the configured heap.
func TestSessionHeapConfigHonored(t *testing.T) {
	hc := DefaultSessionHeapConfig()
	hc.Generations = 2
	srv := New(Config{Heap: hc})
	id := mustRegister(t, srv, "")
	s := srv.Session(id)
	if got := s.Heap().MaxGeneration(); got != 1 {
		t.Fatalf("max generation = %d, want 1", got)
	}
	if New(Config{}).Config().Heap.Generations == 0 {
		t.Fatal("zero heap config not defaulted")
	}
}
