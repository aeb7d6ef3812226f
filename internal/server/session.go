package server

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/extres"
	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/ports"
	"repro/internal/scheme"
)

// SessionID identifies one hosted session.
type SessionID int64

// sessionState is the ownership state machine, guarded by Server.mu.
// A session is touched by at most one goroutine at a time: whoever
// moved it to stRunning or stCollecting owns its heap until it calls
// Server.release. Queue membership is encoded in the state, so a
// session is never in two queues (or one queue twice).
type sessionState int

const (
	stIdle       sessionState = iota // parked: no pending work, owned by nobody
	stReady                          // in Server.readyQ
	stRunning                        // owned by an executor (stepping)
	stGCQueued                       // in Server.gcQ
	stCollecting                     // owned by a GC worker (collecting or draining)
	stDead                           // reclaimed and removed from the registry
)

// ReclaimEvent is one guardian-salvaged resource: a port descriptor or
// an external-resource id, in the order the guardian tconcs yielded it.
type ReclaimEvent struct {
	Kind string // "port" or an extres.Kind string ("malloc", ...)
	ID   int
}

// reclaimEvent is a ReclaimEvent as a session logs it: eight bytes,
// no pointer. kind is an extres.Kind, or evPort, or evUnknown when the
// arena no longer knew the resource (or its kind does not fit).
type reclaimEvent struct {
	kind int32
	id   int32
}

const (
	evPort    = -1
	evUnknown = -2
)

func (e reclaimEvent) public() ReclaimEvent {
	switch e.kind {
	case evPort:
		return ReclaimEvent{Kind: "port", ID: int(e.id)}
	case evUnknown:
		return ReclaimEvent{Kind: "extres", ID: int(e.id)}
	}
	return ReclaimEvent{Kind: extres.Kind(e.kind).String(), ID: int(e.id)}
}

func publicEvents(evs []reclaimEvent) []ReclaimEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]ReclaimEvent, len(evs))
	for i, e := range evs {
		out[i] = e.public()
	}
	return out
}

// ReclaimRecord summarizes the teardown of one disconnected session.
type ReclaimRecord struct {
	ID SessionID
	// Latency is wall time from Disconnect to full reclamation (every
	// guarded port closed, every external resource freed).
	Latency time.Duration
	// Collections is the number of drain collections the session's
	// heap needed before everything was reclaimed.
	Collections int
	// Ports and Resources count what the drain reclaimed through the
	// guardian path (explicit closes/frees by the program excluded).
	Ports, Resources int
	// LeakedPorts/LeakedResources are what remained open after the
	// drain-pass cap — nonzero only if the session held resources
	// outside the guardian protocol (e.g. an unguarded open).
	LeakedPorts, LeakedResources int
	// FinalObjects is the live-object count of the session's final
	// heap census, a leak canary for heap-side residue.
	FinalObjects uint64
	// Log is the per-resource salvage order (guardian tconc order).
	Log []ReclaimEvent
}

// wireMsg is an inter-session message in transit: the datum rendered
// to its textual form (values cannot cross heaps; each heap re-reads
// the form into its own storage).
type wireMsg struct {
	from SessionID
	data string
}

// Session is one isolated guarded heap: a small generational heap, a
// Scheme machine booted with the paper's prelude, a simulated file
// system with a guardian-protected port manager, and an external
// resource arena with a guardian-protected manager. All external
// state is per-session, so sessions share nothing and their heaps can
// be collected concurrently with no new collector invariants.
type Session struct {
	id  SessionID
	srv *Server

	h     *heap.Heap
	m     *scheme.Machine
	fs    *ports.FS
	pm    *ports.Manager
	arena *extres.Arena
	em    *extres.Manager
	mbox  *mailbox
	out   bytes.Buffer

	// Guarded by srv.mu:
	state    sessionState
	inbox    []string  // pending client requests (Scheme source)
	wire     []wireMsg // pending inter-session deliveries
	drainReq bool      // Disconnect was called

	// Owned by the goroutine holding the session (state machine):
	tornDown    bool
	drainPasses int
	// openedFDs / allocedIDs record guarded resources in registration
	// order — the oracle for the reclaim-order tests: objects that die
	// together are salvaged in registration order.
	openedFDs  []int
	allocedIDs []int
	reclaimLog []reclaimEvent
	// guardianPorts / guardianResources count reclaims through the
	// guardian path during the session's whole life (drain included).
	guardianPorts     int
	guardianResources int
	disconnectedAt    time.Time
}

// ID returns the session's identifier.
func (s *Session) ID() SessionID { return s.id }

// Heap exposes the session's heap (tests and census probes).
func (s *Session) Heap() *heap.Heap { return s.h }

// Machine exposes the session's Scheme machine (tests).
func (s *Session) Machine() *scheme.Machine { return s.m }

// OpenedFDs returns the descriptors of guarded ports in open order.
func (s *Session) OpenedFDs() []int { return append([]int(nil), s.openedFDs...) }

// AllocedIDs returns guarded external-resource ids in alloc order.
func (s *Session) AllocedIDs() []int { return append([]int(nil), s.allocedIDs...) }

// ReclaimLog returns the salvage log so far (guardian tconc order).
func (s *Session) ReclaimLog() []ReclaimEvent { return publicEvents(s.reclaimLog) }

// newSession boots one session: heap, machine (prelude included),
// per-session file system and arena, guardian managers, mailbox, and
// the server primitives. Boot runs outside the server lock — it is
// the expensive part of Register (the prelude evaluates into the
// fresh heap) and touches only the new session.
func newSession(srv *Server, id SessionID, cfg heap.Config) (*Session, error) {
	h, err := heap.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: session %d: %w", id, err)
	}
	s := &Session{id: id, srv: srv, h: h}
	s.fs = ports.NewFS()
	s.pm = ports.NewManager(h, s.fs)
	s.m = scheme.New(h, s.pm)
	s.m.Out = &s.out
	s.m.EnableSymbolPruning(true)
	s.arena = extres.NewArena()
	s.em = extres.NewManager(h, s.arena)
	s.mbox = newMailbox(s)
	s.installPrims()
	// The paper's collect-request-handler pattern, per session: an
	// automatic collection (triggered at evaluator safepoints) is
	// followed by a salvage pass that closes dropped ports and frees
	// dropped external resources — so live sessions reclaim their own
	// garbage resources as they run, not only at disconnect.
	h.SetCollectRequestHandler(func(h *heap.Heap) {
		h.CollectAuto()
		s.salvage()
	})
	return s, nil
}

// installPrims exposes the server services to the session's programs.
// All primitives close over the session; they run only on the
// goroutine that owns the session, so they need no locking beyond
// what Server methods (Post) take themselves.
func (s *Session) installPrims() {
	m := s.m
	m.DefinePrim("session-id", 0, 0, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		return obj.FromFixnum(int64(s.id)), nil
	})
	// (open-session-port name) — open a guarded output port on the
	// session's file system. Registration goes straight to the port
	// guardian (no implicit CloseDroppedPorts pass), so every close is
	// observable in the session's reclaim log.
	m.DefinePrim("open-session-port", 1, 1, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		name := m.H.StringValue(a.Get(0))
		p, err := s.pm.OpenOutput(name)
		if err != nil {
			return obj.Void, err
		}
		s.pm.RegisterGuarded(p)
		s.openedFDs = append(s.openedFDs, s.portFD(p))
		return p, nil
	})
	// (session-port-fd p) — the descriptor a port occupies (tests).
	m.DefinePrim("session-port-fd", 1, 1, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		return obj.FromFixnum(int64(s.portFD(a.Get(0)))), nil
	})
	// (session-alloc kind size) — allocate a guarded external resource
	// (kind 0 = malloc, 1 = tempfile, 2 = subprocess) and return its
	// header record.
	m.DefinePrim("session-alloc", 2, 2, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		kind := extres.Kind(a.Get(0).FixnumValue())
		size := int(a.Get(1).FixnumValue())
		rec := s.em.Wrap(kind, size)
		s.allocedIDs = append(s.allocedIDs, s.em.IDOf(rec))
		return rec, nil
	})
	// (session-free header) — free explicitly, ahead of finalization.
	m.DefinePrim("session-free", 1, 1, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		if err := s.em.FreeNow(a.Get(0)); err != nil {
			return obj.False, nil
		}
		return obj.True, nil
	})
	// (send-message to datum) — render datum and post it to session
	// to's mailbox. Delivery happens on the receiver's next wakeup, on
	// the receiver's own goroutine: heap values never cross heaps.
	m.DefinePrim("send-message", 2, 2, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		to := SessionID(a.Get(0).FixnumValue())
		data := m.WriteString(a.Get(1))
		if err := s.srv.Post(s.id, to, data); err != nil {
			return obj.False, nil
		}
		return obj.True, nil
	})
	// (receive) — next delivered message, or #f when the mailbox is
	// empty.
	m.DefinePrim("receive", 0, 0, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		v, ok := s.mbox.receive()
		if !ok {
			return obj.False, nil
		}
		return v, nil
	})
	// (message-from msg) — the sender of a delivered message, looked
	// up by object identity through the transport-guardian-backed eq
	// table (the message may have been moved by any number of
	// collections since delivery).
	m.DefinePrim("message-from", 1, 1, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		from, ok := s.mbox.sender(a.Get(0))
		if !ok {
			return obj.False, nil
		}
		return obj.FromFixnum(int64(from)), nil
	})
	// (message-done msg) — drop the message's delivery metadata.
	m.DefinePrim("message-done", 1, 1, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		return obj.FromBool(s.mbox.done(a.Get(0))), nil
	})
}

func (s *Session) portFD(p obj.Value) int {
	return int(s.h.PortField(p, heap.PortFileID).FixnumValue())
}

// deliverWire parses pending inter-session messages into the
// session's heap mailbox. Runs on the owning goroutine.
func (s *Session) deliverWire(msgs []wireMsg) {
	for _, w := range msgs {
		if err := s.mbox.deliver(w.from, w.data); err != nil {
			// Undeliverable datum (unreadable rendering): dropped, like
			// a malformed packet. The counter makes the loss visible.
			s.srv.addUndeliverable()
		}
	}
}

// step serves up to budget pending requests, each compiled and run on
// the bytecode VM under its own fuel bound. Runs on the owning
// goroutine (an executor, or Poll).
func (s *Session) step(budget int, fuel int64) {
	for i := 0; i < budget; i++ {
		src, ok := s.srv.popRequest(s)
		if !ok {
			return
		}
		s.out.Reset()
		s.m.SetFuel(fuel)
		v, err := s.m.EvalString(src)
		s.m.SetFuel(-1)
		s.srv.addRequestServed()
		if cb := s.srv.cfg.OnReply; cb != nil {
			reply := s.out.String()
			if err == nil {
				if rendered := s.m.WriteString(v); rendered != "#<void>" {
					reply += rendered
				}
			}
			cb(s.id, reply, err)
		}
	}
}

// salvage drains both guardians, closing dropped ports and freeing
// dropped external resources, and appends each reclaimed resource to
// the reclaim log in guardian tconc order (ports first, then external
// resources — each guardian's internal order is the paper's
// deterministic salvage order).
func (s *Session) salvage() {
	for {
		fd, ok := s.pm.CloseNextDropped()
		if !ok {
			break
		}
		s.guardianPorts++
		s.reclaimLog = append(s.reclaimLog, reclaimEvent{kind: evPort, id: int32(fd)})
	}
	for {
		id, ok := s.em.ReleaseNext()
		if !ok {
			break
		}
		s.guardianResources++
		s.reclaimLog = append(s.reclaimLog, reclaimEvent{kind: s.kindOfID(id), id: int32(id)})
	}
}

// kindOfID is best-effort: the arena no longer knows the kind once
// freed, so the log uses the generic name when lookup fails.
func (s *Session) kindOfID(id int) int32 {
	if k, ok := s.arena.KindOf(id); ok && k >= 0 && k <= math.MaxInt32 {
		return int32(k)
	}
	return evUnknown
}

// teardown severs every reference the server holds into the session's
// heap on behalf of the disconnected client: user globals (and with
// them the compiled code of their closures), the mailbox (delivered
// values and their transport-guardian metadata), and undelivered wire
// text. After teardown, the only paths to the session's ports and
// resource headers are the guardian protected lists — the next
// collection proves them inaccessible and the salvage pass reclaims
// them through the tconc protocol.
func (s *Session) teardown() {
	if s.tornDown {
		return
	}
	s.tornDown = true
	s.m.DropUserState()
	s.mbox.release()
	s.out.Reset()
}

// drainPass runs one disconnect-drain step: teardown (first pass
// only), a collection, and a salvage pass. The first pass collects the
// dynamic generations — everything the session allocated, unless its
// own program tenured something with an explicit (collect n) — and
// leaves a static template generation shared; if resources are still
// held after it, later passes collect every generation. It reports
// whether the session is fully reclaimed: no open descriptors and no
// live external resources.
func (s *Session) drainPass() bool {
	s.teardown()
	g := s.h.OldestDynamic()
	if s.drainPasses > 0 {
		g = s.h.MaxGeneration()
	}
	s.h.Collect(g)
	s.salvage()
	s.drainPasses++
	return s.fs.OpenCount() == 0 && s.arena.Live() == 0
}

// finalRecord summarizes the finished (or capped) drain; its log,
// left out, is the session's reclaimLog.
func (s *Session) finalRecord() ReclaimRecord {
	census := s.h.Census()
	return ReclaimRecord{
		ID:              s.id,
		Latency:         time.Since(s.disconnectedAt),
		Collections:     s.drainPasses,
		Ports:           s.guardianPorts,
		Resources:       s.guardianResources,
		LeakedPorts:     s.fs.OpenCount(),
		LeakedResources: s.arena.Live(),
		FinalObjects:    census.Total().Objects,
	}
}
