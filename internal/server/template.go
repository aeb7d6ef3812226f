package server

import (
	"fmt"

	"repro/internal/extres"
	"repro/internal/heap"
	"repro/internal/ports"
	"repro/internal/scheme"
)

// Session boot via copy-on-write heap templates. Register used to
// evaluate the prelude into every fresh heap (~0.5 ms of the ~1 ms
// per-session cost); instead the server now boots one hidden donor
// session, captures its machine into a scheme.MachineTemplate, and
// clones every subsequent session from it in microseconds. The donor
// is kept so the template can be checked for staleness: if anything
// bumps the donor machine's PermVersion (a DefinePrim after capture),
// the next boot rebuilds the template from a fresh donor instead of
// silently booting clones with a divergent prelude.
//
// Everything outside the heap is per-session as before: a clone gets
// its own file system, port manager, arena, resource manager, and
// mailbox, and re-registers the server primitives (DefinePrim replays
// the donor's registration order, hitting the allocation-free fast
// path). The donor's own managers and mailbox are released before the
// capture, so the template holds the prelude and nothing else: the
// capture tenures it into the static generation of
// DefaultSessionHeapConfig, which no clone's collection ever copies —
// whatever were left in there would stay for good. Disconnect/drain
// semantics are unchanged: teardown, collections of everything the
// session allocated (the dynamic generations), and guardian salvage
// run on the clone exactly as on a prelude-booted session.

// bootSession builds the session for Register: template clone by
// default, prelude boot when a test pins it (Config.preludeBoot) or
// when the template path fails.
func (srv *Server) bootSession(id SessionID) (*Session, error) {
	if !srv.cfg.preludeBoot {
		if tpl, err := srv.sessionTemplate(); err == nil {
			if s, err := newSessionFromTemplate(srv, id, tpl); err == nil {
				srv.countBoot(&srv.stats.TemplateBoots)
				return s, nil
			}
		}
	}
	s, err := newSession(srv, id, srv.cfg.Heap)
	if err == nil {
		srv.countBoot(&srv.stats.PreludeBoots)
	}
	return s, err
}

func (srv *Server) countBoot(counter *uint64) {
	srv.mu.Lock()
	*counter++
	srv.mu.Unlock()
}

// sessionTemplate returns the process-wide session template, building
// it on first use and rebuilding it when the donor machine's permanent
// state has changed since capture (PermVersion mismatch). A capture
// failure is sticky: sessions fall back to prelude boot rather than
// re-attempting a build that cannot succeed on every Register.
func (srv *Server) sessionTemplate() (*scheme.MachineTemplate, error) {
	srv.tplMu.Lock()
	defer srv.tplMu.Unlock()
	if srv.tplBroken {
		return nil, fmt.Errorf("server: session template unavailable")
	}
	if srv.tpl != nil && srv.tplDonor.m.PermVersion() == srv.tpl.PermVersion() {
		return srv.tpl, nil
	}
	// First build, or the donor diverged from the captured template
	// (e.g. a host DefinePrim on the donor machine after capture):
	// boot a fresh donor and capture it. The donor is an unregistered
	// session with id 0 — never queued, never stepped; it exists to be
	// captured and to witness staleness.
	donor, err := newSession(srv, 0, srv.cfg.Heap)
	if err != nil {
		srv.tplBroken = true
		return nil, err
	}
	// From here on the donor only witnesses PermVersion: drop the roots
	// of its own managers and mailbox so the capture's collection
	// reclaims them and clones inherit no root at all.
	donor.pm.Release()
	donor.em.Release()
	donor.mbox.release()
	tpl, err := scheme.CaptureTemplate(donor.m)
	if err != nil {
		srv.tplBroken = true
		return nil, fmt.Errorf("server: session template capture: %w", err)
	}
	srv.tpl, srv.tplDonor = tpl, donor
	return tpl, nil
}

// newSessionFromTemplate boots a session by cloning the template heap
// and attaching a machine to it — the microsecond counterpart of
// newSession, with which it must stay in lockstep: same managers, same
// primitive registration order, same collect-request handler.
func newSessionFromTemplate(srv *Server, id SessionID, tpl *scheme.MachineTemplate) (*Session, error) {
	// The template carries no live root (sessionTemplate released the
	// donor's), so there are no inherited handles to deal with.
	h, _, err := tpl.Clone()
	if err != nil {
		return nil, fmt.Errorf("server: session %d: %w", id, err)
	}
	s := &Session{id: id, srv: srv, h: h}
	s.fs = ports.NewFS()
	s.pm = ports.NewManager(h, s.fs)
	s.m = tpl.Attach(h, s.pm)
	s.m.Out = &s.out
	s.m.EnableSymbolPruning(true)
	s.arena = extres.NewArena()
	s.em = extres.NewManager(h, s.arena)
	s.mbox = newMailbox(s)
	s.installPrims() // replays the donor's DefinePrim order: fast path
	h.SetCollectRequestHandler(func(h *heap.Heap) {
		h.CollectAuto()
		s.salvage()
	})
	return s, nil
}
