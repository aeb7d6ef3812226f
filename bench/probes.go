package main

import (
	"repro/internal/extres"
	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/ports"
	"repro/internal/scheme"
	"repro/internal/server"
)

// Probes call the layers under the server directly, from the harness,
// so that their cost can be set beside what a request or a lifecycle
// costs through the event loop. They run after the measured phase of a
// traced server run.

const (
	probeRequests  = 2000
	probeClones    = 200
	probeResourceN = 256
)

type schemeProbe struct {
	machine         *scheme.Machine
	ns              []int64 // per-request evaluation time
	meanNS          float64
	wordsPerRequest float64
}

// probeScheme replays one session's share of the seeded request stream
// through Machine.EvalString on a stand-alone machine and heap of the
// session configuration. The server's own primitives are replaced by
// stand-ins that do the same heap work without a server.
func probeScheme(tr *tracer, seed int64, init string, workOnly bool) schemeProbe {
	h := heap.MustNew(server.DefaultSessionHeapConfig())
	pm := ports.NewManager(h, ports.NewFS())
	m := scheme.New(h, pm)
	m.Out = discard{}
	em := extres.NewManager(h, extres.NewArena())
	m.DefinePrim("open-session-port", 1, 1, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		p, err := pm.OpenOutput(m.H.StringValue(a.Get(0)))
		if err == nil {
			pm.RegisterGuarded(p)
		}
		return p, err
	})
	m.DefinePrim("session-alloc", 2, 2, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		return em.Wrap(extres.Kind(a.Get(0).FixnumValue()), int(a.Get(1).FixnumValue())), nil
	})
	m.DefinePrim("send-message", 2, 2, func(m *scheme.Machine, a scheme.Args) (obj.Value, error) {
		m.WriteString(a.Get(1)) // the server renders the datum to post it
		return obj.True, nil
	})
	m.DefinePrim("receive", 0, 0, func(*scheme.Machine, scheme.Args) (obj.Value, error) { return obj.False, nil })
	m.DefinePrim("message-done", 1, 1, func(*scheme.Machine, scheme.Args) (obj.Value, error) { return obj.True, nil })

	p := schemeProbe{machine: m}
	if _, err := m.EvalString(init); err != nil {
		return p
	}
	gen := newServeGen(seed*1000, 2)
	s := &sessionModel{id: 1}
	w0, c0 := h.Stats.WordsAllocated, h.Stats.WordsCopied
	var total int64
	for i := int64(0); i < probeRequests; i++ {
		q := gen.next()
		if workOnly {
			q.Kind, q.N = reqWork, int32(50+gen.r.Intn(151))
		}
		src, _ := s.render(q, s, i)
		s.mbox = s.mbox[:0] // the stand-in receive never delivers
		sp := tr.begin(spSchemeEval, i)
		t0 := nanotime()
		_, err := m.EvalString(src)
		d := nanotime() - t0
		tr.end(sp)
		if err != nil {
			return p
		}
		p.ns = append(p.ns, d)
		total += d
		// A collection the request left pending runs on the server's GC
		// worker, outside the request; here, outside the timing.
		h.Checkpoint()
	}
	p.meanNS = float64(total) / probeRequests
	p.wordsPerRequest = float64((h.Stats.WordsAllocated-w0)-(h.Stats.WordsCopied-c0)) / probeRequests
	return p
}

type discard struct{}

func (discard) Write(b []byte) (int, error) { return len(b), nil }

// probeClone times heap.CloneFromTemplate (through the machine
// template, as the server's Register does) on a template captured from
// the probe's machine.
func probeClone(tr *tracer, m *scheme.Machine) []int64 {
	if m == nil {
		return nil
	}
	tpl, err := scheme.CaptureTemplate(m)
	if err != nil {
		return nil
	}
	var ns []int64
	for i := int64(0); i < probeClones; i++ {
		sp := tr.begin(spTemplateClone, i)
		t0 := nanotime()
		_, roots, err := tpl.Clone()
		d := nanotime() - t0
		tr.end(sp)
		if err != nil {
			return ns
		}
		for _, r := range roots {
			if r != nil {
				r.Release()
			}
		}
		ns = append(ns, d)
	}
	return ns
}

// probeResources opens guarded ports and external resources on a
// stand-alone heap, drops them, collects, and times the clean-up calls
// the server's salvage pass makes: CloseNextDropped and ReleaseNext.
func probeResources(tr *tracer) {
	h := heap.MustNew(server.DefaultSessionHeapConfig())
	fs := ports.NewFS()
	pm := ports.NewManager(h, fs)
	arena := extres.NewArena()
	em := extres.NewManager(h, arena)
	for i := 0; i < probeResourceN; i++ {
		if p, err := pm.OpenOutput("probe.log"); err == nil {
			pm.RegisterGuarded(p)
		}
		em.Wrap(extres.Kind(0), 64)
	}
	h.Collect(h.MaxGeneration())
	for i := int64(0); ; i++ {
		sp := tr.begin(spPortsClose, i)
		_, ok := pm.CloseNextDropped()
		tr.end(sp)
		if !ok {
			break
		}
	}
	for i := int64(0); ; i++ {
		sp := tr.begin(spExtresRelease, i)
		_, ok := em.ReleaseNext()
		tr.end(sp)
		if !ok {
			break
		}
	}
}
