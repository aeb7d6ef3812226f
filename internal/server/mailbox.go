package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obj"
)

// mailbox is a session's inbox for inter-session messages. Delivered
// data lives in the session's own heap: the queue is a rooted tconc
// of message values, and delivery metadata (sender, sequence number)
// is keyed by the message object itself in an eq hash table running
// in RehashTransport mode — the §3 transport-guardian application.
// The collector is free to move a delivered-but-unclaimed message at
// every collection; the transport guardian reports (a superset of)
// the moved keys, so (message-from msg) stays a cheap identity lookup
// no matter how many collections separate delivery from receipt,
// without rehashing tenured messages that no longer move.
type mailbox struct {
	s        *Session
	q        *heap.Root    // tconc of delivered message values
	meta     *core.EqTable // msg -> (from . seq), transport-rehashed
	seq      int64
	released bool
}

func newMailbox(s *Session) *mailbox {
	return &mailbox{
		s:    s,
		q:    s.h.NewRoot(core.NewTconc(s.h)),
		meta: core.NewEqTable(s.h, 64, core.RehashTransport),
	}
}

// deliver parses one wire message into the session's heap and
// enqueues it. Runs on the goroutine owning the session.
func (mb *mailbox) deliver(from SessionID, data string) error {
	if mb.released {
		return fmt.Errorf("server: mailbox released")
	}
	forms, err := mb.s.m.ReadAll(data)
	if err != nil {
		return err
	}
	if len(forms) != 1 {
		return fmt.Errorf("server: message must be a single datum (got %d forms)", len(forms))
	}
	v := forms[0]
	// No collection can intervene between the calls below: allocation
	// only raises a collect request, which is honored at evaluator
	// safepoints, never inside these calls.
	core.TconcPut(mb.s.h, mb.q.Get(), v)
	mb.seq++
	mb.meta.Put(v, mb.s.h.Cons(obj.FromFixnum(int64(from)), obj.FromFixnum(mb.seq)))
	return nil
}

// receive pops the next delivered message, if any.
func (mb *mailbox) receive() (obj.Value, bool) {
	if mb.released {
		return obj.False, false
	}
	return core.TconcGet(mb.s.h, mb.q.Get())
}

// sender looks up the sender of a delivered message by eq identity.
func (mb *mailbox) sender(msg obj.Value) (SessionID, bool) {
	if mb.released {
		return 0, false
	}
	m, ok := mb.meta.Get(msg)
	if !ok {
		return 0, false
	}
	return SessionID(mb.s.h.Car(m).FixnumValue()), true
}

// done drops a message's delivery metadata.
func (mb *mailbox) done(msg obj.Value) bool {
	if mb.released {
		return false
	}
	return mb.meta.Delete(msg)
}

// pending returns the number of delivered-but-unreceived messages.
func (mb *mailbox) pending() int {
	if mb.released {
		return 0
	}
	return core.TconcLength(mb.s.h, mb.q.Get())
}

// release drops every heap reference the mailbox holds: the queue
// root, the metadata table's buckets, and the transport guardian
// behind it. Undelivered messages become garbage — exactly what a
// disconnect should make them.
func (mb *mailbox) release() {
	if mb.released {
		return
	}
	mb.released = true
	mb.q.Release()
	mb.meta.Release()
}
