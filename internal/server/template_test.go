package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obj"
	"repro/internal/scheme"
)

// Tests for template-backed session boot: Register boots clones from
// the process-wide prelude template by default, falls back to (or is
// pinned to) prelude boot via Config.preludeBoot, rebuilds the
// template when the donor's permanent state drifts, and — the part
// that matters — template-booted sessions are indistinguishable from
// prelude-booted ones, including disconnect-time guardian reclaim.

func TestTemplateBootDefault(t *testing.T) {
	log := newReplyLog()
	srv := syncServer(t, log)
	const n = 8
	ids := make([]SessionID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, mustRegister(t, srv, "(define acc 0)"))
	}
	st := srv.Stats()
	if st.TemplateBoots != n || st.PreludeBoots != 0 {
		t.Fatalf("TemplateBoots=%d PreludeBoots=%d, want %d/0", st.TemplateBoots, st.PreludeBoots, n)
	}
	// Clone sessions run the full workload: ports, resources, state.
	for _, id := range ids {
		got := evalIn(t, srv, log, id, `
			(begin
			  (define p (open-session-port "t.tmp"))
			  (define r (session-alloc 0 16))
			  (set! acc (+ acc (session-id)))
			  acc)`)
		if got != fmt.Sprint(id) {
			t.Fatalf("session %d replied %q", id, got)
		}
	}
	for _, id := range ids {
		if err := srv.Disconnect(id); err != nil {
			t.Fatal(err)
		}
	}
	srv.Poll()
	st = srv.Stats()
	if st.Live != 0 || st.Reclaimed != n || st.LeakedPorts != 0 || st.LeakedRes != 0 {
		t.Fatalf("after disconnects: %+v", st)
	}
	for i, rec := range srv.ReclaimRecords() {
		if rec.Ports != 1 || rec.Resources != 1 || rec.LeakedPorts != 0 || rec.LeakedResources != 0 {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
}

func TestPreludeBootConfig(t *testing.T) {
	log := newReplyLog()
	srv := New(Config{preludeBoot: true, OnReply: log.cb})
	id := mustRegister(t, srv, "")
	st := srv.Stats()
	if st.PreludeBoots != 1 || st.TemplateBoots != 0 {
		t.Fatalf("TemplateBoots=%d PreludeBoots=%d, want 0/1", st.TemplateBoots, st.PreludeBoots)
	}
	if got := evalIn(t, srv, log, id, "(+ 1 2)"); got != "3" {
		t.Fatalf("reply %q", got)
	}
}

// TestTemplateBootMatchesPreludeBoot runs the same scripted session
// against a template-booting server and a prelude-booting one; every
// reply and the reclaim record must agree.
func TestTemplateBootMatchesPreludeBoot(t *testing.T) {
	script := []string{
		`(begin (define g (make-guardian)) (define x (cons 'a 'b)) (g x) 'ok)`,
		`(begin (set! x #f) (collect 3) (g))`,
		`(sort < '(3 1 2))`,
		`(begin (define p (open-session-port "x.tmp")) (session-port-fd p))`,
		`(let loop ((i 0) (acc '())) (if (< i 40) (loop (+ i 1) (cons i acc)) (length acc)))`,
	}
	run := func(prelude bool) ([]string, ReclaimRecord) {
		log := newReplyLog()
		srv := New(Config{preludeBoot: prelude, OnReply: log.cb})
		id := mustRegister(t, srv, "")
		var replies []string
		for _, src := range script {
			replies = append(replies, evalIn(t, srv, log, id, src))
		}
		if err := srv.Disconnect(id); err != nil {
			t.Fatal(err)
		}
		srv.Poll()
		recs := srv.ReclaimRecords()
		if len(recs) != 1 {
			t.Fatalf("records = %d", len(recs))
		}
		return replies, recs[0]
	}
	tplReplies, tplRec := run(false)
	preReplies, preRec := run(true)
	for i := range script {
		if tplReplies[i] != preReplies[i] {
			t.Fatalf("step %d: template boot replied %q, prelude boot %q",
				i, tplReplies[i], preReplies[i])
		}
	}
	if tplRec.Ports != preRec.Ports || tplRec.LeakedPorts != preRec.LeakedPorts ||
		tplRec.LeakedResources != preRec.LeakedResources {
		t.Fatalf("reclaim records diverge: template %+v, prelude %+v", tplRec, preRec)
	}
}

// TestTemplateRebuiltOnDonorDrift is the server half of the snapshot
// bugfix: a DefinePrim on the donor machine after the template was
// captured must invalidate it — the next Register rebuilds from a
// fresh donor instead of booting clones missing the primitive.
func TestTemplateRebuiltOnDonorDrift(t *testing.T) {
	log := newReplyLog()
	srv := syncServer(t, log)
	mustRegister(t, srv, "")
	srv.tplMu.Lock()
	tpl0, donor0 := srv.tpl, srv.tplDonor
	srv.tplMu.Unlock()
	if tpl0 == nil || donor0 == nil {
		t.Fatal("no template cached after first Register")
	}

	// Same donor, same version: the next Register reuses the template.
	mustRegister(t, srv, "")
	srv.tplMu.Lock()
	if srv.tpl != tpl0 {
		t.Fatal("template rebuilt without donor drift")
	}
	srv.tplMu.Unlock()

	// Drift the donor's permanent state, as an embedder extending the
	// prelude at runtime would.
	donor0.m.DefinePrim("late-prim", 0, 0, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		return obj.FromFixnum(1234), nil
	})
	id := mustRegister(t, srv, "")
	srv.tplMu.Lock()
	tpl1, donor1 := srv.tpl, srv.tplDonor
	srv.tplMu.Unlock()
	if tpl1 == tpl0 {
		t.Fatal("stale template survived donor PermVersion drift")
	}
	if donor1 == donor0 {
		t.Fatal("template rebuilt from the drifted donor; want a fresh one")
	}
	if st := srv.Stats(); st.TemplateBoots != 3 || st.PreludeBoots != 0 {
		t.Fatalf("TemplateBoots=%d PreludeBoots=%d, want 3/0", st.TemplateBoots, st.PreludeBoots)
	}
	// The fresh donor does not carry the drifted primitive — it would
	// not be replayed by Session.installPrims and clones would diverge
	// from the Register contract (only server prims + init script).
	if got := evalIn(t, srv, log, id, "(+ 2 3)"); got != "5" {
		t.Fatalf("post-rebuild session broken: %q", got)
	}
}

// TestTemplateBootChurn is the template-boot variant of the churn
// gate at small scale: every cycle boots from the template, works,
// and reclaims with zero leaks. (The CI race gate runs the main churn
// stress — which boots from the template by default — at 10k cycles.)
func TestTemplateBootChurn(t *testing.T) {
	srv := New(Config{Executors: 2, GCWorkers: 2})
	srv.Start()
	defer srv.Close()
	const cycles = 150
	for i := 0; i < cycles; i++ {
		id, err := srv.Register("(define n 0)")
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		err = srv.Send(id, `
			(begin
			  (define p (open-session-port "c.tmp"))
			  (define r (session-alloc 0 32))
			  (set! n 1)
			  n)`)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := srv.Disconnect(id); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if !srv.WaitIdle(time.Minute) {
		t.Fatal("server did not drain")
	}
	st := srv.Stats()
	if st.TemplateBoots != cycles {
		t.Fatalf("TemplateBoots = %d, want %d (fallbacks: PreludeBoots=%d)",
			st.TemplateBoots, cycles, st.PreludeBoots)
	}
	if st.Live != 0 || st.Reclaimed != cycles || st.LeakedPorts != 0 || st.LeakedRes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, rec := range srv.ReclaimRecords() {
		if rec.LeakedPorts != 0 || rec.LeakedResources != 0 {
			t.Fatalf("record %d leaked: %+v", i, rec)
		}
	}
}
