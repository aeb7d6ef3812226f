package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obj"
)

// BenchmarkGuardianRegister measures registration cost (§4: a single
// pair added to the generation-0 protected list). Registered objects
// are dropped immediately; a periodic untimed collection salvages and
// drains them so protected-list and tconc state stay bounded.
//
//	go test -run '^$' -bench GuardianRegister ./internal/core/
func BenchmarkGuardianRegister(b *testing.B) {
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Register(h.Cons(obj.FromFixnum(int64(i)), obj.Nil))
		if i%8192 == 8191 {
			b.StopTimer()
			h.Collect(h.MaxGeneration())
			for {
				if _, ok := g.Get(); !ok {
					break
				}
			}
			b.StartTimer()
		}
	}
}
