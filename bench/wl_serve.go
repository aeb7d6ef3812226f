package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// The two server workloads drive internal/server in a closed loop:
// clientCount goroutines, each owning its own sessions and waiting for
// every reply (delivered by OnReply over a channel) before it sends
// again. One executor and one GC worker serve them, so with
// GOMAXPROCS=2 the load generator never has more than two goroutines
// runnable.
//
//   - serve-steady: a standing population of sessions booted from the
//     template, picked by a zipfian draw; one operation is one request.
//   - serve-churn: a smaller standing population beside which whole
//     session lifecycles run; one operation is Register, the init
//     script, four requests and Disconnect.
const (
	clientCount = 2

	steadySessions    = 512
	steadyWarmPerSess = 5
	steadyBatchOps    = 400 // split over the clients: ~0.2 s, ~100 batches a run
	steadyZipfS       = 1.1

	churnStanding  = 256
	churnWarm      = 420 // lifecycles in the warm-up
	churnBatchOps  = 50  // ~0.17 s
	churnRequests  = 4
	maxSessionIDs  = 1 << 18
	quiesceTimeout = 2 * time.Minute
)

// sessionDefs is what every session's init script defines: the request
// handlers the generator calls, each returning a value the generator
// can predict from the requests it has sent the session so far.
const sessionDefs = `
  (define state '())
  (define total 0)
  (define writes 0)
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
  (define (log-line s)
    (display s port)
    (set! writes (+ writes 1))
    writes)
  (define (exchange to v)
    (send-message to (list v))
    (let ((m (receive)))
      (if m (let ((x (car m))) (message-done m) x) -1)))`

// steadyInit opens one guarded port and one guarded external resource.
const steadyInit = `(begin
  (define port (open-session-port "steady.log"))
  (define res (session-alloc 0 64))` + sessionDefs + `
  0)`

// churnInit opens two of each and builds a 200-element list.
const churnInit = `(begin
  (define port (open-session-port "churn-a.log"))
  (define port2 (open-session-port "churn-b.log"))
  (define res (session-alloc 0 64))
  (define res2 (session-alloc 1 256))` + sessionDefs + `
  (define data (build 0 200))
  0)`

// Request kinds of the steady mix.
const (
	reqWork     = iota // 80 %: build a list of n numbers, replacing the session's state
	reqWrite           // 15 %: write a line to the session's port
	reqExchange        // 5 %: send a message to a neighbour and receive one
)

// serveReq is one generated request.
type serveReq struct {
	Sess int32 // index into the client's sessions
	Kind uint8
	N    int32 // list length for reqWork
}

// serveGen draws the steady mix over nSess sessions.
type serveGen struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

func newServeGen(seed int64, nSess int) *serveGen {
	r := newRand(seed)
	return &serveGen{r: r, zipf: rand.NewZipf(r, steadyZipfS, 1, uint64(nSess-1))}
}

func (g *serveGen) next() serveReq {
	q := serveReq{Sess: int32(g.zipf.Uint64())}
	switch p := g.r.Intn(100); {
	case p < 80:
		q.Kind, q.N = reqWork, int32(50+g.r.Intn(151))
	case p < 95:
		q.Kind = reqWrite
	default:
		q.Kind = reqExchange
	}
	return q
}

// sessionModel is what the generator expects one session to answer.
type sessionModel struct {
	id     server.SessionID
	k      int64 // first number of the next list
	total  int64
	writes int64
	mbox   []int64 // messages sent to it and not yet received
}

// render turns a request into source text and the reply it must get,
// updating the model. nb is the session an exchange sends to.
func (s *sessionModel) render(q serveReq, nb *sessionModel, tag int64) (src, want string) {
	switch q.Kind {
	case reqWork:
		n := int64(q.N)
		src = "(work " + strconv.FormatInt(s.k, 10) + " " + strconv.FormatInt(n, 10) + ")"
		s.total += n*s.k + n*(n-1)/2
		s.k += n
		want = strconv.FormatInt(s.total, 10)
	case reqWrite:
		s.writes++
		src = `(log-line "line ` + strconv.FormatInt(s.writes, 10) + `\n")`
		want = strconv.FormatInt(s.writes, 10)
	default:
		src = "(exchange " + strconv.FormatInt(int64(nb.id), 10) + " " + strconv.FormatInt(tag, 10) + ")"
		got := int64(-1)
		if len(s.mbox) > 0 {
			got, s.mbox = s.mbox[0], s.mbox[1:]
		}
		nb.mbox = append(nb.mbox, tag) // delivered at nb's next wake-up, before its next request
		want = strconv.FormatInt(got, 10)
	}
	return src, want
}

type serveReply struct {
	id   server.SessionID
	text string
	err  error
}

// serveClient is one closed-loop caller.
type serveClient struct {
	e        *env
	idx      int
	srv      *server.Server
	owner    []int8 // by session id: which client waits for its replies
	ch       chan serveReply
	gen      *serveGen
	sessions []*sessionModel
	tr       *tracer
	c        opCounts
	lat      []int64
	regNS    []int64 // Register latencies seen in set-up
	seq      int64
	fault    bool
}

// call sends one request and waits for its reply.
func (c *serveClient) call(id server.SessionID, src string) (string, error) {
	sp := c.tr.begin(spServerRequest, c.seq)
	defer c.tr.end(sp)
	if err := c.srv.Send(id, src); err != nil {
		return "", err
	}
	// No timeout here: a timer per request would sit in the timed path.
	// main's watchdog ends a run whose server stops answering.
	r := <-c.ch
	if r.id != id {
		return "", fmt.Errorf("reply from session %d while waiting for %d", r.id, id)
	}
	return r.text, r.err
}

// expect sends a request and reports whether the reply was the one
// the generator computed.
func (c *serveClient) expect(id server.SessionID, src, want string) bool {
	if c.fault && c.seq%64 == 0 {
		want += "?"
	}
	got, err := c.call(id, src)
	if err != nil || got != want {
		c.c.note("session %d: %s => %q (%v), want %q", id, src, got, err, want)
		return false
	}
	return true
}

// register boots one session and runs its init script.
func (c *serveClient) register(init string) (*sessionModel, error) {
	sp := c.tr.begin(spServerRegister, c.seq)
	t0 := nanotime()
	id, err := c.srv.Register("")
	c.regNS = append(c.regNS, nanotime()-t0)
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if int(id) >= len(c.owner) {
		return nil, fmt.Errorf("session id %d beyond the %d the harness routes", id, len(c.owner))
	}
	c.owner[id] = int8(c.idx)
	if c.e.gc != nil {
		c.e.observe(c.srv.Session(id).Heap()) // idle until its first request: nobody else owns it
	}
	s := &sessionModel{id: id}
	if got, err := c.call(id, init); err != nil || got != "0" {
		return nil, fmt.Errorf("session %d: init script => %q (%v)", id, got, err)
	}
	return s, nil
}

// steadyOp is one request of the steady mix to one of the client's
// standing sessions.
func (c *serveClient) steadyOp() {
	q := c.gen.next()
	s := c.sessions[q.Sess]
	nb := c.sessions[(int(q.Sess)+1)%len(c.sessions)]
	c.c.attempted++
	root := c.tr.begin(spOp, c.seq)
	src, want := s.render(q, nb, c.seq)
	if !c.expect(s.id, src, want) {
		c.c.failed++
	}
	c.tr.end(root)
	c.seq++
}

// churnOp is one whole session lifecycle.
func (c *serveClient) churnOp() {
	c.c.attempted++
	root := c.tr.begin(spOp, c.seq)
	ok := true
	s, err := c.register(churnInit)
	if err != nil {
		ok = false
		c.c.note("%v", err)
	} else {
		for i := 0; i < churnRequests; i++ {
			q := serveReq{Kind: reqWork, N: int32(50 + c.gen.r.Intn(151))}
			src, want := s.render(q, s, c.seq)
			ok = c.expect(s.id, src, want) && ok
		}
		sp := c.tr.begin(spServerDisconnect, c.seq)
		if err := c.srv.Disconnect(s.id); err != nil {
			ok = false
		}
		c.tr.end(sp)
	}
	c.tr.end(root)
	if !ok {
		c.c.failed++
	}
	c.seq++
}

// serveWL is both server workloads.
type serveWL struct {
	e       *env
	churn   bool
	srv     *server.Server
	clients []*serveClient
	// standing is every session that outlives the measured phase.
	standing             []server.SessionID
	stats0               server.Stats
	words0               uint64
	hits0                uint64
	measured             int // reclaim records before the measured phase
	c                    opCounts
	shut                 bool
	recs                 []server.ReclaimRecord // of the measured lifecycles, or of the final drain
	cowCopies, cowShared float64                // summed over the standing sessions
	segsEnd              int
	wordsEnd             uint64
	hitsEnd              uint64
}

func newServeSteady(e *env) workload { return &serveWL{e: e} }
func newServeChurn(e *env) workload  { return &serveWL{e: e, churn: true} }

func (w *serveWL) setup() error {
	o := w.e.o
	cfg := server.Config{Executors: 1, GCWorkers: 1}
	if o.executors != 0 {
		cfg.Executors = o.executors
	}
	if o.gcworkers != 0 {
		cfg.GCWorkers = o.gcworkers
	}
	if o.workers != 0 {
		cfg.Heap = server.DefaultSessionHeapConfig()
		cfg.Heap.Workers = o.workers
	}
	owner := make([]int8, maxSessionIDs)
	chans := make([]chan serveReply, clientCount)
	for i := range chans {
		chans[i] = make(chan serveReply, 1)
	}
	cfg.OnReply = func(id server.SessionID, reply string, err error) {
		// owner[id] was written before the Send this reply answers, and
		// Send and the executor's pop synchronize on the server's lock.
		chans[owner[id]] <- serveReply{id, reply, err}
	}
	w.srv = server.New(cfg)
	w.srv.Start()

	standing := steadySessions
	if w.churn {
		standing = churnStanding
	}
	standing = o.scaled(standing, 2*clientCount)
	per := standing / clientCount
	for i := 0; i < clientCount; i++ {
		w.clients = append(w.clients, &serveClient{e: w.e, idx: i, srv: w.srv, owner: owner, ch: chans[i],
			gen: newServeGen(o.seed*1000+int64(i), per), tr: w.e.tracer(i), fault: o.fault == "wrong-reply"})
	}
	err := w.eachClient(func(c *serveClient) error {
		for j := 0; j < per; j++ {
			s, err := c.register(steadyInit) // standing sessions are the same in both workloads
			if err != nil {
				return err
			}
			c.sessions = append(c.sessions, s)
		}
		// Warm up with the first operations of the stream itself.
		if w.churn {
			for j := o.scaled(churnWarm, 4) / clientCount; j > 0; j-- {
				c.churnOp()
			}
		} else {
			for j := per * steadyWarmPerSess; j > 0; j-- {
				c.steadyOp()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range w.clients {
		for _, s := range c.sessions {
			w.standing = append(w.standing, s.id)
		}
	}
	if err := w.quiesce(); err != nil {
		return err
	}
	w.stats0 = w.srv.Stats()
	w.measured = int(w.stats0.Reclaimed)
	w.words0, w.hits0, _ = w.standingHeaps()
	return nil
}

// standingHeaps sums over the standing sessions' heaps: words the
// sessions allocated, barrier hits, segments in use. The server must
// be idle.
func (w *serveWL) standingHeaps() (words, hits uint64, segs int) {
	for _, id := range w.standing {
		h := w.srv.Session(id).Heap()
		words += h.Stats.WordsAllocated - h.Stats.WordsCopied
		hits += h.Stats.BarrierHits
		segs += h.SegmentsInUse()
	}
	return
}

// eachClient runs fn on every client's own goroutine and waits.
func (w *serveWL) eachClient(fn func(*serveClient) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.clients))
	for i, c := range w.clients {
		wg.Add(1)
		go func(i int, c *serveClient) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWL) batchOps() int {
	if w.churn {
		return w.e.o.scaled(churnBatchOps, 8)
	}
	return w.e.o.scaled(steadyBatchOps, 40)
}

func (w *serveWL) runBatch(lat []int64) []int64 {
	per := w.batchOps() / clientCount
	_ = w.eachClient(func(c *serveClient) error {
		c.lat = c.lat[:0]
		for i := 0; i < per; i++ {
			t0 := nanotime()
			if w.churn {
				c.churnOp()
			} else {
				c.steadyOp()
			}
			c.lat = append(c.lat, nanotime()-t0)
		}
		return nil
	})
	for _, c := range w.clients {
		lat = append(lat, c.lat...)
	}
	return lat
}

func (w *serveWL) quiesce() error {
	if !w.srv.WaitIdle(quiesceTimeout) {
		return fmt.Errorf("server did not go idle in %v", quiesceTimeout)
	}
	return nil
}

// check verifies the standing population, then disconnects it and
// requires every session ever registered to have been reclaimed
// through the guardian path with nothing leaked.
func (w *serveWL) check() {
	c := &w.c
	st := w.srv.Stats()
	if st.Live != len(w.standing) {
		c.fail("%d sessions live at the end, want the %d standing ones", st.Live, len(w.standing))
	}
	w.wordsEnd, w.hitsEnd, w.segsEnd = w.standingHeaps()
	for _, id := range w.standing {
		h := w.srv.Session(id).Heap()
		w.cowCopies += float64(h.COWCopies())
		w.cowShared += float64(h.SharedSegments())
		for _, err := range h.Verify() {
			c.fail("session %d: Verify: %v", id, err)
		}
	}
	recs := w.srv.ReclaimRecords()
	if w.churn {
		w.recs = recs[w.measured:]
		var lifecycles int64
		for _, cl := range w.clients {
			lifecycles += cl.seq
		}
		if int64(len(recs)) != lifecycles {
			c.fail("%d reclaim records for %d lifecycles", len(recs), lifecycles)
		}
		w.checkRecords(recs, 2, 2)
	}
	for _, id := range w.standing {
		if err := w.srv.Disconnect(id); err != nil {
			c.fail("disconnect %d: %v", id, err)
		}
	}
	if err := w.quiesce(); err != nil {
		c.fail("%v", err)
	}
	w.shut = true
	final := w.srv.ReclaimRecords()[len(recs):]
	if len(final) != len(w.standing) {
		c.fail("%d of %d standing sessions reclaimed", len(final), len(w.standing))
	}
	w.checkRecords(final, 1, 1)
	if !w.churn {
		w.recs = final
	}
	if st := w.srv.Stats(); st.Live != 0 || st.LeakedPorts != 0 || st.LeakedRes != 0 {
		c.fail("after shutdown: %d live, %d ports and %d resources leaked", st.Live, st.LeakedPorts, st.LeakedRes)
	}
}

// checkRecords requires each session to have given back exactly the
// ports and resources its init script opened. A churned lifecycle
// whose record is wrong is a failed operation.
func (w *serveWL) checkRecords(recs []server.ReclaimRecord, ports, resources int) {
	for i := range recs {
		r := &recs[i]
		if r.LeakedPorts != 0 || r.LeakedResources != 0 || r.Ports != ports || r.Resources != resources {
			w.c.fail("session %d reclaimed %d ports and %d resources (want %d, %d), leaked %d and %d",
				r.ID, r.Ports, r.Resources, ports, resources, r.LeakedPorts, r.LeakedResources)
		}
	}
}

func (w *serveWL) layers(m map[string]float64, ph *phase) {
	ph.mutators = 1
	ph.mutatorWords = w.wordsEnd - w.words0
	ts := w.e.tracers[:clientCount]
	var reg []int64
	for _, t := range ts {
		reg = t.durations(spServerRegister, reg)
	}
	if len(reg) == 0 { // no Register in the measured phase: report the set-up's
		for _, c := range w.clients {
			reg = append(reg, c.regNS...)
		}
	}
	m["server.register_p50_us"] = pctUS(reg, 50)
	m["server.register_p99_us"] = pctUS(reg, 99)
	var send []int64
	for _, t := range ts {
		send = t.durations(spServerRequest, send)
	}
	m["server.send_p50_us"] = pctUS(send, 50)

	var lat []int64
	var colls, ports, res float64
	for i := range w.recs {
		r := &w.recs[i]
		lat = append(lat, int64(r.Latency))
		colls += float64(r.Collections)
		ports += float64(r.Ports)
		res += float64(r.Resources)
	}
	m["server.reclaim_p50_us"] = pctUS(lat, 50)
	m["server.reclaim_p99_us"] = pctUS(lat, 99)
	m["server.drain_collections_per_session"] = ratio(colls, float64(len(w.recs)))
	m["ports.closed"] = ports
	m["extres.released"] = res

	st := w.srv.Stats()
	m["server.idle_collects"] = float64(st.IdleCollects - w.stats0.IdleCollects)
	m["server.drain_collects"] = float64(st.DrainCollects - w.stats0.DrainCollects)
	m["server.template_boots"] = float64(st.TemplateBoots)
	m["server.prelude_boots"] = float64(st.PreludeBoots)
	m["server.leaked"] = float64(st.LeakedPorts + st.LeakedRes)

	n := float64(len(w.standing))
	m["heap.template.cow_copies_per_session"] = ratio(w.cowCopies, n)
	m["heap.template.shared_segments_per_session"] = ratio(w.cowShared, n)
	m["heap.alloc.words"] = float64(ph.mutatorWords)
	m["heap.barrier.hits"] = float64(w.hitsEnd - w.hits0)
	m["seg.in_use_end"] = float64(w.segsEnd)

	// What the layers under the server cost when the harness calls
	// them directly, outside the event loop.
	probe := w.e.tracer(clientCount)
	probe.on = true
	init := steadyInit
	if w.churn {
		init = churnInit
	}
	ev := probeScheme(probe, w.e.o.seed, init, w.churn)
	m["scheme.eval_p50_us"] = pctUS(ev.ns, 50)
	m["scheme.eval_p99_us"] = pctUS(ev.ns, 99)
	m["scheme.words_per_request"] = ev.wordsPerRequest
	reqs := sumTotals(ts, spServerRequest)
	share := ratio(ev.meanNS, ratio(float64(reqs.total), float64(reqs.n)))
	m["scheme.eval_share"] = share
	m["server.wait_share"] = 1 - share
	m["heap.template.clone_p50_us"] = pctUS(probeClone(probe, ev.machine), 50)
	probeResources(probe)
	m["ports.close_dropped_ns"] = netNS([]*tracer{probe}, spPortsClose, 0)
	m["extres.release_ns"] = netNS([]*tracer{probe}, spExtresRelease, 0)
	probe.on = false
}

func (w *serveWL) counts() (int64, int64, []string) {
	c := w.c
	for _, cl := range w.clients {
		c.add(&cl.c)
	}
	return c.attempted, c.failed, c.errs
}

func (w *serveWL) close() {
	if w.srv != nil {
		w.srv.Close()
	}
}
