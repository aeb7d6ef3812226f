package server

import (
	"fmt"
	"testing"

	"repro/internal/ports"
)

// Go benchmarks for what a template-booted session costs: the machine
// half of its boot (Attach onto an already cloned heap) and one
// serve-steady request. Run with -benchmem: B/op and allocs/op of
// BenchmarkAttach are the Go-side tables a session does not share.

// BenchmarkAttach measures MachineTemplate.Attach against the server's
// session template. The heap clone each iteration needs is made with
// the timer stopped.
func BenchmarkAttach(b *testing.B) {
	srv := New(Config{})
	if _, err := srv.Register(""); err != nil {
		b.Fatal(err)
	}
	tpl := srv.tpl
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, _, err := tpl.Clone()
		if err != nil {
			b.Fatal(err)
		}
		pm := ports.NewManager(h, ports.NewFS())
		b.StartTimer()
		tpl.Attach(h, pm)
	}
}

// BenchmarkSessionRequest measures one (work k 125) request — the
// serve-steady handler — on a template-booted session, through Send
// and the synchronous drive, automatic collections included.
func BenchmarkSessionRequest(b *testing.B) {
	srv := New(Config{})
	id, err := srv.Register(steadyDefs)
	if err != nil {
		b.Fatal(err)
	}
	srv.Poll()
	if srv.Session(id).Heap().SharedSegments() == 0 {
		b.Fatal("session is not template-booted")
	}
	reqs := make([]string, 64)
	for k := range reqs {
		reqs[k] = fmt.Sprintf("(work %d 125)", k*200)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.Send(id, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
		srv.Poll()
	}
	b.StopTimer()
	if errs := srv.Session(id).Heap().Verify(); len(errs) > 0 {
		b.Fatalf("Verify: %v", errs[0])
	}
}
