package scheme

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/seg"
)

// BenchmarkInternAttached measures Intern of a name that is already
// interned, on a machine attached to a template: "base" is a name from
// the template's permanent prefix (one map lookup), "overlay" one the
// machine interned itself (a miss in the base map, then a hit in the
// overlay's). The reader interns every symbol of a request this way.
// Public API only, so the file can be copied into an older checkout.
func BenchmarkInternAttached(b *testing.B) {
	donor := New(heap.MustNew(heap.Config{
		Generations: 4,
		Policy:      heap.StaticTop(heap.RadixPolicy{Trigger: 8 * seg.Words}),
		UseDirtySet: true,
	}), nil)
	tpl, err := CaptureTemplate(donor)
	if err != nil {
		b.Fatal(err)
	}
	h, _, err := tpl.Clone()
	if err != nil {
		b.Fatal(err)
	}
	m := tpl.Attach(h, nil)
	const local = "session-local-name"
	want := m.Intern(local)
	for _, name := range []string{"car", local} {
		sub := "base"
		if name == local {
			sub = "overlay"
		}
		b.Run(sub, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Intern(name)
			}
		})
	}
	if m.Intern(local) != want {
		b.Fatal("overlay symbol moved or was re-interned")
	}
}
