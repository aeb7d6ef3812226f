// Package server hosts many isolated Scheme sessions — one small
// guarded heap plus Scheme machine each — behind an event loop, the
// multi-session serving scenario the paper's resource story builds
// toward: each session's ports and external resources are
// guardian-protected inside its own heap, so dropping a session (or a
// client disconnect) reclaims them purely through the guardian tconc
// path, with no server-side bookkeeping of what the session held.
//
// The event loop is a ready-queue design: sessions with pending work
// (client requests or inter-session messages) wait in a ready queue
// and are stepped with a bounded budget per wakeup; sessions whose
// heaps want collecting (allocation trigger fired, or disconnected
// and draining) wait in a GC queue and are collected on a worker
// pool. Collections of different sessions are embarrassingly parallel
// — heaps share nothing — so no new collector invariants exist at any
// worker count. A session is owned by at most one goroutine at a
// time; ownership transfers through the server mutex, which is the
// only cross-session synchronization in the design.
//
// Two drive modes share the same dispatch code: Start launches
// executor and GC-worker pools (the serving configuration), while
// Poll processes both queues to quiescence on the calling goroutine
// in FIFO order — the deterministic schedule the reclaim-order tests
// replay at different collector configurations.
package server

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/heap"
	"repro/internal/scheme"
	"repro/internal/seg"
)

// Config shapes a server.
type Config struct {
	// Heap is the per-session heap configuration. The zero value
	// selects DefaultSessionHeapConfig. Collector knobs (the Policy,
	// MaxSegments) apply within each session's heap.
	Heap heap.Config
	// Executors is the number of goroutines stepping ready sessions
	// after Start. 0 means the server is driven synchronously with
	// Poll and Start must not be called.
	Executors int
	// GCWorkers is the number of goroutines collecting queued heaps
	// after Start (idle collections and disconnect drains). Defaults
	// to 1 when Executors > 0.
	GCWorkers int
	// StepRequests bounds how many requests one wakeup serves before
	// the session goes back to the ready queue (default 4) — the
	// bounded step budget that keeps one chatty session from starving
	// the rest.
	StepRequests int
	// StepFuel bounds the work of one request (default 1<<20): a unit
	// is a procedure call or a backward jump of the VM, which runs
	// every request. A runaway request fails with a budget error
	// instead of wedging its executor.
	StepFuel int64
	// DrainPasses caps disconnect-drain collections per session
	// (default 3). A session still holding descriptors or resources
	// after the cap leaked them outside the guardian protocol; the cap
	// turns that into a recorded leak instead of an endless drain.
	DrainPasses int
	// OnReply, when non-nil, receives each served request's printed
	// output and result (or error). It runs on the serving goroutine;
	// implementations must be safe for concurrent calls when
	// Executors > 1.
	OnReply func(id SessionID, reply string, err error)
	// preludeBoot forces Register to boot every session by evaluating
	// the prelude into a fresh heap, the template fallback. Unset,
	// Register boots sessions from a process-wide copy-on-write heap
	// template built on first Register (see template.go) and falls back
	// to prelude boot only if the template cannot be built. Only this
	// package's tests set it, to compare the two boots.
	preludeBoot bool
}

// DefaultSessionHeapConfig is the per-session heap shape: small
// nursery (sessions are small by design — the scale axis is session
// count), three dynamic generations under a static one, dirty set on.
// The static generation is where the template
// donor tenures the prelude (scheme.CaptureTemplate), so a clone's
// collections never copy it and the clone goes on sharing the
// template's segments for as long as it lives; a prelude-booted
// session leaves it empty.
func DefaultSessionHeapConfig() heap.Config {
	return heap.Config{
		Generations: 4,
		Policy:      heap.StaticTop(heap.RadixPolicy{Trigger: 8 * seg.Words}),
		UseDirtySet: true,
	}
}

func (c Config) withDefaults() Config {
	if c.Heap.Generations == 0 {
		c.Heap = DefaultSessionHeapConfig()
	}
	if c.StepRequests <= 0 {
		c.StepRequests = 4
	}
	if c.StepFuel == 0 {
		c.StepFuel = 1 << 20
	}
	if c.DrainPasses <= 0 {
		c.DrainPasses = 3
	}
	if c.Executors > 0 && c.GCWorkers <= 0 {
		c.GCWorkers = 1
	}
	return c
}

// Stats is a snapshot of server-wide counters.
type Stats struct {
	Registered    uint64 // sessions ever registered
	Live          int    // currently registered (not yet fully reclaimed)
	Reclaimed     uint64 // sessions fully drained and removed
	Requests      uint64 // client requests served
	Messages      uint64 // inter-session messages posted
	Undeliverable uint64 // messages dropped at delivery (unreadable datum)
	IdleCollects  uint64 // collections run from the GC queue on live sessions
	DrainCollects uint64 // collections run while draining disconnected sessions
	LeakedPorts   uint64 // descriptors still open when a drain hit its cap
	LeakedRes     uint64 // external resources still live when a drain hit its cap
	TemplateBoots uint64 // sessions booted by cloning the heap template
	PreludeBoots  uint64 // sessions booted by evaluating the prelude
}

// Server hosts the sessions.
type Server struct {
	cfg Config

	mu sync.Mutex
	// readyCond wakes executors, gcCond GC workers: each is signalled
	// when its own queue grows, so a served request wakes nobody who has
	// nothing to pop. Both are broadcast on Close.
	readyCond *sync.Cond
	gcCond    *sync.Cond
	sessions  map[SessionID]*Session
	nextID    SessionID
	readyQ    []*Session
	gcQ       []*Session
	busy      int // sessions currently owned by a worker
	started   bool
	closed    bool
	wg        sync.WaitGroup

	stats Stats
	// The reclaim history: every fully reclaimed session's record and
	// salvage log, encoded (ReclaimRecords decodes it).
	history reclaimHistory

	// Session-boot template state (template.go), guarded by tplMu (its
	// own mutex: building the first template evaluates a whole prelude,
	// which must not stall the event loop under srv.mu).
	tplMu     sync.Mutex
	tpl       *scheme.MachineTemplate
	tplDonor  *Session
	tplBroken bool
}

// New creates a server. With cfg.Executors == 0 the server is
// synchronous: drive it with Poll. Otherwise call Start.
func New(cfg Config) *Server {
	srv := &Server{
		cfg:      cfg.withDefaults(),
		sessions: make(map[SessionID]*Session),
	}
	srv.readyCond = sync.NewCond(&srv.mu)
	srv.gcCond = sync.NewCond(&srv.mu)
	return srv
}

// Config returns the server's effective configuration.
func (srv *Server) Config() Config { return srv.cfg }

// Register boots a new session and returns its id. If initScript is
// nonempty it is enqueued as the session's first request. Boot (heap,
// prelude, managers) runs outside the server lock; only registry
// insertion synchronizes.
func (srv *Server) Register(initScript string) (SessionID, error) {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return 0, fmt.Errorf("server: closed")
	}
	srv.nextID++
	id := srv.nextID
	srv.mu.Unlock()

	s, err := srv.bootSession(id)
	if err != nil {
		return 0, err
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return 0, fmt.Errorf("server: closed")
	}
	srv.sessions[id] = s
	srv.stats.Registered++
	if initScript != "" {
		s.inbox = append(s.inbox, initScript)
		srv.markReadyLocked(s)
	}
	return id, nil
}

// Send enqueues a client request (Scheme source) for the session.
func (srv *Server) Send(id SessionID, src string) error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	s := srv.sessions[id]
	if s == nil || s.drainReq {
		return fmt.Errorf("server: no session %d", id)
	}
	s.inbox = append(s.inbox, src)
	srv.markReadyLocked(s)
	return nil
}

// Post delivers an inter-session message: data (a rendered datum) is
// queued for the destination and parsed into its heap on its own next
// wakeup. Sessions call it through the send-message primitive; hosts
// may inject messages directly.
func (srv *Server) Post(from, to SessionID, data string) error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	s := srv.sessions[to]
	if s == nil || s.drainReq {
		return fmt.Errorf("server: no session %d", to)
	}
	s.wire = append(s.wire, wireMsg{from: from, data: data})
	srv.stats.Messages++
	srv.markReadyLocked(s)
	return nil
}

// Disconnect begins tearing a session down: it stops accepting work
// and moves to the GC queue, where drain passes reclaim its ports and
// external resources through the guardian path. The session is
// removed from the registry when fully reclaimed (its ReclaimRecord
// is then available from ReclaimRecords).
func (srv *Server) Disconnect(id SessionID) error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	s := srv.sessions[id]
	if s == nil {
		return fmt.Errorf("server: no session %d", id)
	}
	if s.drainReq {
		return nil
	}
	s.drainReq = true
	s.disconnectedAt = time.Now()
	// Pending work is void: requests and undelivered wire messages
	// die with the connection.
	s.inbox = nil
	s.wire = nil
	switch s.state {
	case stIdle:
		srv.queueGCLocked(s)
	case stReady:
		// Already queued; the executor pop reroutes drain-requested
		// sessions to the GC queue.
	case stRunning, stCollecting, stGCQueued:
		// The owner (or queue) reroutes at release/pop.
	}
	return nil
}

// markReadyLocked queues a parked session for stepping. Callers hold
// srv.mu.
func (srv *Server) markReadyLocked(s *Session) {
	if s.state == stIdle {
		srv.queueReadyLocked(s)
	}
}

// queueReadyLocked / queueGCLocked append s to a queue and wake one
// worker of the kind that pops it. Callers hold srv.mu and own s (or
// found it parked).
func (srv *Server) queueReadyLocked(s *Session) {
	s.state = stReady
	srv.readyQ = append(srv.readyQ, s)
	srv.readyCond.Signal()
}

func (srv *Server) queueGCLocked(s *Session) {
	s.state = stGCQueued
	srv.gcQ = append(srv.gcQ, s)
	srv.gcCond.Signal()
}

// popRequest hands the owning goroutine the next pending request.
func (srv *Server) popRequest(s *Session) (string, bool) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(s.inbox) == 0 {
		return "", false
	}
	src := s.inbox[0]
	s.inbox = s.inbox[1:]
	return src, true
}

// takeWire hands the owning goroutine the pending wire messages.
func (srv *Server) takeWire(s *Session) []wireMsg {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	msgs := s.wire
	s.wire = nil
	return msgs
}

func (srv *Server) addRequestServed() {
	srv.mu.Lock()
	srv.stats.Requests++
	srv.mu.Unlock()
}

func (srv *Server) addUndeliverable() {
	srv.mu.Lock()
	srv.stats.Undeliverable++
	srv.mu.Unlock()
}

// stepSession runs one ready-session wakeup: deliver pending wire
// messages into the heap, then serve a bounded number of requests.
// The caller owns s (state stRunning).
func (srv *Server) stepSession(s *Session) {
	s.deliverWire(srv.takeWire(s))
	s.step(srv.cfg.StepRequests, srv.cfg.StepFuel)
	// A step may have proven resources inaccessible via an explicit
	// (collect) without crossing another checkpoint; sweep the
	// guardians before parking so reclamation stays prompt.
	s.salvage()
	srv.release(s)
}

// gcSession runs one GC-queue wakeup. For live sessions this is an
// idle collection (the allocation trigger fired while the session was
// parked) followed by the salvage pass; for disconnected sessions one
// drain pass. The caller owns s (state stCollecting).
func (srv *Server) gcSession(s *Session) {
	if s.isDraining() {
		done := s.drainPass()
		srv.mu.Lock()
		srv.stats.DrainCollects++
		if done || s.drainPasses >= srv.cfg.DrainPasses {
			srv.finishLocked(s)
			srv.mu.Unlock()
			return
		}
		// Not yet reclaimed: another pass.
		srv.queueGCLocked(s)
		srv.busy--
		srv.mu.Unlock()
		return
	}
	if s.h.CollectPending() {
		// The session's own collect-request handler: CollectAuto plus
		// the guardian salvage pass.
		s.h.Checkpoint()
		srv.mu.Lock()
		srv.stats.IdleCollects++
		srv.mu.Unlock()
	}
	srv.release(s)
}

func (s *Session) isDraining() bool {
	s.srv.mu.Lock()
	defer s.srv.mu.Unlock()
	return s.drainReq
}

// finishLocked records the drain outcome and removes the session.
func (srv *Server) finishLocked(s *Session) {
	rec := s.finalRecord()
	srv.history.add(&rec, s.reclaimLog)
	srv.stats.Reclaimed++
	srv.stats.LeakedPorts += uint64(rec.LeakedPorts)
	srv.stats.LeakedRes += uint64(rec.LeakedResources)
	s.state = stDead
	delete(srv.sessions, s.id)
	srv.busy--
}

// release returns an owned session to the right queue (or parks it).
func (srv *Server) release(s *Session) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	srv.busy--
	switch {
	case s.drainReq:
		srv.queueGCLocked(s)
	case len(s.inbox) > 0 || len(s.wire) > 0:
		srv.queueReadyLocked(s)
	case s.h.CollectPending():
		srv.queueGCLocked(s)
	default:
		s.state = stIdle
	}
}

// popReadyLocked / popGCLocked transfer ownership out of a queue.
// Drain-requested sessions found in the ready queue are rerouted.
func (srv *Server) popReadyLocked() *Session {
	for len(srv.readyQ) > 0 {
		s := srv.readyQ[0]
		srv.readyQ = srv.readyQ[1:]
		if s.drainReq {
			srv.queueGCLocked(s)
			continue
		}
		s.state = stRunning
		srv.busy++
		return s
	}
	return nil
}

func (srv *Server) popGCLocked() *Session {
	if len(srv.gcQ) == 0 {
		return nil
	}
	s := srv.gcQ[0]
	srv.gcQ = srv.gcQ[1:]
	s.state = stCollecting
	srv.busy++
	return s
}

// Poll processes both queues to quiescence on the calling goroutine,
// in FIFO order — the synchronous drive mode (Executors == 0). It
// returns the number of wakeups processed. The schedule is a pure
// function of the call sequence, which is what makes server-level
// reclaim order reproducible across collector configurations.
func (srv *Server) Poll() int {
	n := 0
	for {
		srv.mu.Lock()
		if srv.started {
			srv.mu.Unlock()
			panic("server: Poll on a started server")
		}
		if s := srv.popReadyLocked(); s != nil {
			srv.mu.Unlock()
			srv.stepSession(s)
			n++
			continue
		}
		if s := srv.popGCLocked(); s != nil {
			srv.mu.Unlock()
			srv.gcSession(s)
			n++
			continue
		}
		srv.mu.Unlock()
		return n
	}
}

// Start launches the executor and GC worker pools. The server then
// serves until Close.
func (srv *Server) Start() {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.started || srv.closed {
		panic("server: Start on a started or closed server")
	}
	if srv.cfg.Executors <= 0 {
		panic("server: Start needs Config.Executors > 0")
	}
	srv.started = true
	for i := 0; i < srv.cfg.Executors; i++ {
		srv.wg.Add(1)
		go srv.executorLoop()
	}
	for i := 0; i < srv.cfg.GCWorkers; i++ {
		srv.wg.Add(1)
		go srv.gcLoop()
	}
}

func (srv *Server) executorLoop() {
	defer srv.wg.Done()
	for {
		srv.mu.Lock()
		var s *Session
		for {
			if srv.closed {
				srv.mu.Unlock()
				return
			}
			if s = srv.popReadyLocked(); s != nil {
				break
			}
			srv.readyCond.Wait()
		}
		srv.mu.Unlock()
		srv.stepSession(s)
	}
}

func (srv *Server) gcLoop() {
	defer srv.wg.Done()
	for {
		srv.mu.Lock()
		var s *Session
		for {
			if srv.closed {
				srv.mu.Unlock()
				return
			}
			if s = srv.popGCLocked(); s != nil {
				break
			}
			srv.gcCond.Wait()
		}
		srv.mu.Unlock()
		srv.gcSession(s)
	}
}

// WaitIdle blocks until both queues are empty and no session is owned
// by a worker, or the timeout elapses. It reports whether quiescence
// was reached.
func (srv *Server) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// The cond has no timed wait; poll with a short sleep. Quiescence
	// checks are cheap (two queue lengths and a counter).
	for {
		srv.mu.Lock()
		quiet := len(srv.readyQ) == 0 && len(srv.gcQ) == 0 && srv.busy == 0
		srv.mu.Unlock()
		if quiet {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Close stops the worker pools. Sessions are left as they are; a
// closed server accepts no further work.
func (srv *Server) Close() {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	srv.closed = true
	srv.readyCond.Broadcast()
	srv.gcCond.Broadcast()
	srv.mu.Unlock()
	srv.wg.Wait()
}

// Stats returns a snapshot of the server counters.
func (srv *Server) Stats() Stats {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	st := srv.stats
	st.Live = len(srv.sessions)
	return st
}

// ReclaimRecords returns the drain records of every fully reclaimed
// session, in completion order.
func (srv *Server) ReclaimRecords() []ReclaimRecord {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.history.records()
}

// Session returns a live session by id (tests; the caller must not
// touch the heap while workers own the session).
func (srv *Server) Session(id SessionID) *Session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[id]
}

// LiveSessions returns the ids of all registered sessions, ascending.
func (srv *Server) LiveSessions() []SessionID {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	ids := make([]SessionID, 0, len(srv.sessions))
	for id := range srv.sessions {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}
