// Package repro_test benchmarks every experiment of the reproduction
// (one benchmark family per claim/figure in the paper; see DESIGN.md's
// experiment index and EXPERIMENTS.md for recorded results), plus
// micro-benchmarks of the collector primitives themselves.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/ports"
	"repro/internal/recycle"
	"repro/internal/scheme"
)

func fx(n int64) obj.Value { return obj.FromFixnum(n) }

func churn(h *heap.Heap, pairs int) {
	for i := 0; i < pairs; i++ {
		h.Cons(fx(int64(i)), obj.Nil)
	}
}

// --- E1: collector overhead proportional to work done -------------------

// BenchmarkE1GenerationFriendly times a generation-0 collection with N
// objects registered with a guardian and tenured to the oldest
// generation. The paper's claim is that the time is independent of N.
func BenchmarkE1GenerationFriendly(b *testing.B) {
	for _, N := range []int{0, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("tenured=%d", N), func(b *testing.B) {
			h := heap.NewDefault()
			g := core.NewGuardian(h)
			lst := h.NewRoot(obj.Nil)
			for i := 0; i < N; i++ {
				p := h.Cons(fx(int64(i)), obj.Nil)
				lst.Set(h.Cons(p, lst.Get()))
				g.Register(p)
			}
			for i := 0; i < 3; i++ {
				h.Collect(h.MaxGeneration())
			}
			h.Stats.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn(h, 1000)
				h.Collect(0)
			}
			b.StopTimer()
			b.ReportMetric(float64(h.Stats.GuardianEntriesScanned)/float64(b.N),
				"guardian-entries/gc")
		})
	}
}

// BenchmarkE1WeakListBaseline is the same setting for the weak-list
// mechanism: each scan traverses all N entries.
func BenchmarkE1WeakListBaseline(b *testing.B) {
	for _, N := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("tenured=%d", N), func(b *testing.B) {
			h := heap.NewDefault()
			w := baseline.NewWeakListFinalizer(h)
			lst := h.NewRoot(obj.Nil)
			for i := 0; i < N; i++ {
				p := h.Cons(fx(int64(i)), obj.Nil)
				lst.Set(h.Cons(p, lst.Get()))
				w.Watch(p)
			}
			h.Collect(h.MaxGeneration())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Scan(func(obj.Value) {})
			}
			b.StopTimer()
			b.ReportMetric(float64(w.CellsScanned)/float64(b.N), "cells/scan")
		})
	}
}

// --- E2: mutator overhead proportional to clean-ups performed ------------

// BenchmarkE2MutatorProportional measures one guarded-table cleanup
// round: drop `drop` keys out of a 2048-entry table, collect, access.
// The whole cycle (build, drop, collect, cleanup) is inside measured
// time so b.N stays sane; the figure of interest — the cleanup access
// alone — is reported as the cleanup-ns metric, which tracks the drop
// count while the weak-list baseline would stay flat at table size.
func BenchmarkE2MutatorProportional(b *testing.B) {
	const K = 2048
	hash := func(h *heap.Heap, key obj.Value) uint64 {
		return uint64(h.Car(key).FixnumValue())
	}
	for _, drop := range []int{0, 16, 256, 1024} {
		b.Run(fmt.Sprintf("drop=%d", drop), func(b *testing.B) {
			h := heap.NewDefault()
			tbl := core.NewGuardedTable(h, 1024, hash)
			probe := h.NewRoot(h.Cons(fx(-1), obj.Nil))
			tbl.Access(probe.Get(), fx(0))
			var cleanupNS int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roots := make([]*heap.Root, K)
				for j := 0; j < K; j++ {
					key := h.Cons(fx(int64(j)), obj.Nil)
					roots[j] = h.NewRoot(key)
					tbl.Access(key, fx(int64(j)))
				}
				for j := 0; j < drop; j++ {
					roots[j].Release()
				}
				h.Collect(h.MaxGeneration())
				t0 := time.Now()
				tbl.Access(probe.Get(), fx(0)) // pays only for the drops
				cleanupNS += time.Since(t0).Nanoseconds()
				for j := drop; j < K; j++ {
					roots[j].Release()
				}
				h.Collect(h.MaxGeneration())
				tbl.Access(probe.Get(), fx(0))
			}
			b.StopTimer()
			b.ReportMetric(float64(cleanupNS)/float64(b.N), "cleanup-ns")
		})
	}
}

// --- E3: guarded hash table (Figure 1) -----------------------------------

// BenchmarkE3GuardedHashTable measures steady-state access cost of the
// guarded and unguarded tables (the guarded table's cleanup check on a
// quiet guardian is a single pointer comparison).
func BenchmarkE3GuardedHashTable(b *testing.B) {
	hash := func(h *heap.Heap, key obj.Value) uint64 {
		return uint64(h.Car(key).FixnumValue())
	}
	const K = 1024
	b.Run("guarded", func(b *testing.B) {
		h := heap.NewDefault()
		tbl := core.NewGuardedTable(h, 512, hash)
		keys := make([]*heap.Root, K)
		for i := 0; i < K; i++ {
			keys[i] = h.NewRoot(h.Cons(fx(int64(i)), obj.Nil))
			tbl.Access(keys[i].Get(), fx(int64(i)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Access(keys[i%K].Get(), fx(0))
		}
	})
	b.Run("unguarded", func(b *testing.B) {
		h := heap.NewDefault()
		tbl := core.NewUnguardedTable(h, 512, hash)
		keys := make([]*heap.Root, K)
		for i := 0; i < K; i++ {
			keys[i] = h.NewRoot(h.Cons(fx(int64(i)), obj.Nil))
			tbl.Access(keys[i].Get(), fx(int64(i)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Access(keys[i%K].Get(), fx(0))
		}
	})
}

// --- E4: transport-guardian rehashing -------------------------------------

// BenchmarkE4TransportRehash measures one young-collection round
// (churn, collect, lookup) against an eq table with tenured keys.
func BenchmarkE4TransportRehash(b *testing.B) {
	const K = 5000
	for _, mode := range []core.RehashMode{core.RehashAll, core.RehashTransport} {
		name := "rehash-all"
		if mode == core.RehashTransport {
			name = "transport"
		}
		b.Run(name, func(b *testing.B) {
			h := heap.NewDefault()
			tbl := core.NewEqTable(h, 4096, mode)
			keys := make([]*heap.Root, K)
			for i := 0; i < K; i++ {
				keys[i] = h.NewRoot(h.Cons(fx(int64(i)), obj.Nil))
				tbl.Put(keys[i].Get(), fx(int64(i)))
			}
			for i := 0; i < 4; i++ {
				h.Collect(h.MaxGeneration())
				tbl.Get(keys[0].Get())
			}
			tbl.KeysRehashed = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn(h, 500)
				h.Collect(0)
				if _, ok := tbl.Get(keys[i%K].Get()); !ok {
					b.Fatal("key lost")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tbl.KeysRehashed)/float64(b.N), "keys-rehashed/gc")
		})
	}
}

// --- E5: dropped ports -----------------------------------------------------

// BenchmarkE5Ports measures one guarded open/write/drop round,
// including the amortized cost of closing previously dropped ports.
func BenchmarkE5Ports(b *testing.B) {
	h := heap.NewDefault()
	m := ports.NewManager(h, ports.NewFS())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.GuardedOpenOutput("bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := m.WriteString(p, "some buffered output"); err != nil {
			b.Fatal(err)
		}
		// dropped
		if i%100 == 99 {
			h.Collect(1)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.DroppedClosed)/float64(b.N), "ports-closed/op")
}

// --- E6: free-list recycling -------------------------------------------------

// BenchmarkE6Recycle measures one frame (get, use, drop, collect) with
// the guardian pool and with fresh allocation.
func BenchmarkE6Recycle(b *testing.B) {
	const bitmapBytes = 32 * 1024
	initObj := func(h *heap.Heap, v obj.Value) {
		for i := 0; i < bitmapBytes; i++ {
			h.ByteSet(v, i, byte(i))
		}
	}
	b.Run("pool", func(b *testing.B) {
		h := heap.NewDefault()
		pool := recycle.NewPool(h,
			func(h *heap.Heap) obj.Value { return h.MakeBytevector(bitmapBytes) },
			initObj)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := pool.Get()
			h.ByteSet(v, 0, byte(i))
			h.Collect(h.MaxGeneration())
		}
		b.StopTimer()
		b.ReportMetric(float64(pool.Created), "objects-created")
	})
	b.Run("fresh", func(b *testing.B) {
		h := heap.NewDefault()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := h.MakeBytevector(bitmapBytes)
			initObj(h, v)
			h.ByteSet(v, 0, byte(i))
			h.Collect(h.MaxGeneration())
		}
	})
}

// --- E7: tconc protocols -------------------------------------------------------

// BenchmarkE7Tconc measures the queue operations of Figures 3 and 4.
func BenchmarkE7Tconc(b *testing.B) {
	b.Run("put", func(b *testing.B) {
		h := heap.NewDefault()
		tc := h.NewRoot(core.NewTconc(h))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.TconcPut(h, tc.Get(), fx(int64(i)))
			if i%10000 == 9999 {
				b.StopTimer()
				for {
					if _, ok := core.TconcGet(h, tc.Get()); !ok {
						break
					}
				}
				h.Collect(h.MaxGeneration())
				b.StartTimer()
			}
		}
	})
	b.Run("put-get", func(b *testing.B) {
		h := heap.NewDefault()
		tc := h.NewRoot(core.NewTconc(h))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.TconcPut(h, tc.Get(), fx(int64(i)))
			if _, ok := core.TconcGet(h, tc.Get()); !ok {
				b.Fatal("underflow")
			}
			if i%10000 == 9999 {
				b.StopTimer()
				h.Collect(h.MaxGeneration())
				b.StartTimer()
			}
		}
	})
}

// --- E8: mechanism comparison ----------------------------------------------------

// BenchmarkE8Baselines registers and finalizes a batch of M objects
// through each mechanism.
func BenchmarkE8Baselines(b *testing.B) {
	const M = 1000
	b.Run("guardian", func(b *testing.B) {
		h := heap.NewDefault()
		g := core.NewGuardian(h)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < M; j++ {
				g.Register(h.Cons(fx(int64(j)), obj.Nil))
			}
			h.Collect(h.MaxGeneration())
			for {
				if _, ok := g.Get(); !ok {
					break
				}
			}
		}
	})
	b.Run("weak-list", func(b *testing.B) {
		h := heap.NewDefault()
		w := baseline.NewWeakListFinalizer(h)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < M; j++ {
				w.Wrap(h.Cons(fx(int64(j)), obj.Nil))
			}
			h.Collect(h.MaxGeneration())
			w.Scan(func(obj.Value) {})
		}
	})
	b.Run("register-for-finalization", func(b *testing.B) {
		h := heap.NewDefault()
		r := baseline.NewRegisterForFinalization(h)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < M; j++ {
				r.Register(h.Cons(fx(int64(j)), obj.Nil), func() {})
			}
			h.Collect(h.MaxGeneration())
			r.RunThunks()
		}
	})
}

// --- Ablations ------------------------------------------------------------------

// BenchmarkAblationDirtySet compares young-collection cost with the
// remembered set against scanning all older generations.
func BenchmarkAblationDirtySet(b *testing.B) {
	for _, useDirty := range []bool{true, false} {
		name := "dirty-set"
		if !useDirty {
			name = "scan-all-old"
		}
		b.Run(name, func(b *testing.B) {
			cfg := heap.DefaultConfig()
			cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
			cfg.UseDirtySet = useDirty
			h := heap.MustNew(cfg)
			lst := h.NewRoot(obj.Nil)
			for i := 0; i < 50000; i++ {
				lst.Set(h.Cons(fx(int64(i)), lst.Get()))
			}
			h.Collect(h.MaxGeneration())
			h.Collect(h.MaxGeneration())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn(h, 1000)
				h.Collect(0)
			}
		})
	}
}

// BenchmarkAblationWeakScan compares the weak pass restricted to
// freshly copied weak pairs against scanning every weak segment.
func BenchmarkAblationWeakScan(b *testing.B) {
	for _, scanAll := range []bool{false, true} {
		name := "fresh-only"
		if scanAll {
			name = "scan-all-weak"
		}
		b.Run(name, func(b *testing.B) {
			cfg := heap.DefaultConfig()
			cfg.Policy = heap.RadixPolicy{Trigger: 1 << 30}
			cfg.WeakScanAll = scanAll
			h := heap.MustNew(cfg)
			keep := h.NewRoot(obj.Nil)
			for i := 0; i < 50000; i++ {
				target := h.Cons(fx(int64(i)), obj.Nil)
				keep.Set(h.Cons(target, keep.Get()))
				keep.Set(h.Cons(h.WeakCons(target, obj.Nil), keep.Get()))
			}
			h.Collect(h.MaxGeneration())
			h.Collect(h.MaxGeneration())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn(h, 1000)
				h.Collect(0)
			}
		})
	}
}

// BenchmarkAblationDataSpace compares full collections of equal-sized
// live payloads held as strings (unswept data space) vs vectors
// (pointer space, every word swept).
func BenchmarkAblationDataSpace(b *testing.B) {
	const chunks = 1500
	b.Run("strings", func(b *testing.B) {
		h := heap.NewDefault()
		keep := h.NewRoot(obj.Nil)
		for i := 0; i < chunks; i++ {
			keep.Set(h.Cons(h.MakeString(string(make([]byte, 512))), keep.Get()))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Collect(h.MaxGeneration())
		}
	})
	b.Run("vectors", func(b *testing.B) {
		h := heap.NewDefault()
		keep := h.NewRoot(obj.Nil)
		for i := 0; i < chunks; i++ {
			keep.Set(h.Cons(h.MakeVector(64, fx(0)), keep.Get()))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Collect(h.MaxGeneration())
		}
	})
}

// --- Collector and Scheme micro-benchmarks ------------------------------------

// BenchmarkAllocCons measures raw pair allocation.
func BenchmarkAllocCons(b *testing.B) {
	h := heap.NewDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Cons(fx(int64(i)), obj.Nil)
		if i%100000 == 99999 {
			b.StopTimer()
			h.Collect(0)
			b.StartTimer()
		}
	}
}

// BenchmarkCollectGen0 measures an empty-nursery young collection.
func BenchmarkCollectGen0(b *testing.B) {
	h := heap.NewDefault()
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 10000; i++ {
		lst.Set(h.Cons(fx(int64(i)), lst.Get()))
	}
	h.Collect(h.MaxGeneration())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(h, 1000)
		h.Collect(0)
	}
}

// BenchmarkCollectTraceOverhead measures the cost the observability
// layer adds to a young collection: disabled (the default — the
// per-phase clocks always run, but no event is materialized), with the
// ring buffer enabled, and with a callback installed. The acceptance
// bar is that "disabled" stays within 2% of the pre-tracing collector;
// since the phase clocks cannot be turned off, the disabled
// configuration IS that baseline, and the ring/func variants bound the
// marginal cost of turning tracing on.
func BenchmarkCollectTraceOverhead(b *testing.B) {
	setup := func() *heap.Heap {
		h := heap.NewDefault()
		lst := h.NewRoot(obj.Nil)
		for i := 0; i < 10000; i++ {
			lst.Set(h.Cons(fx(int64(i)), lst.Get()))
		}
		h.Collect(h.MaxGeneration())
		return h
	}
	run := func(b *testing.B, h *heap.Heap) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churn(h, 1000)
			h.Collect(0)
		}
		b.StopTimer()
		b.ReportMetric(float64(h.Stats.TotalPause.Nanoseconds())/float64(h.Stats.Collections),
			"pause-ns/gc")
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, setup())
	})
	b.Run("ring", func(b *testing.B) {
		h := setup()
		h.EnableTrace(64)
		run(b, h)
	})
	b.Run("func", func(b *testing.B) {
		h := setup()
		var sink int64
		h.SetTraceFunc(func(ev heap.TraceEvent) { sink += ev.PauseNS })
		run(b, h)
	})
}

// BenchmarkGuardianRegister measures registration cost (§4: a single
// pair added to the generation-0 protected list). Registered objects
// are dropped immediately; a periodic unmeasured collection salvages
// and drains them so protected-list and tconc state stay bounded.
func BenchmarkGuardianRegister(b *testing.B) {
	h := heap.NewDefault()
	g := core.NewGuardian(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Register(h.Cons(fx(int64(i)), obj.Nil))
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

// BenchmarkSchemeEval measures Scheme throughput on a classic
// allocation-heavy workload under automatic collection.
func BenchmarkSchemeEval(b *testing.B) {
	b.Run("fib-15", func(b *testing.B) {
		m := scheme.New(heap.NewDefault(), nil)
		m.MustEval("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := m.MustEval("(fib 15)"); v.FixnumValue() != 610 {
				b.Fatal("wrong answer")
			}
		}
	})
	b.Run("list-churn", func(b *testing.B) {
		h := heap.MustNew(heap.Config{Generations: 4, Policy: heap.RadixPolicy{Trigger: 16384, Radix: 4}, UseDirtySet: true})
		m := scheme.New(h, nil)
		m.MustEval("(define (build n) (if (zero? n) '() (cons n (build (- n 1)))))")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := m.MustEval("(length (build 100))"); v.FixnumValue() != 100 {
				b.Fatal("wrong answer")
			}
		}
	})
	b.Run("guardian-churn", func(b *testing.B) {
		h := heap.MustNew(heap.Config{Generations: 4, Policy: heap.RadixPolicy{Trigger: 16384, Radix: 4}, UseDirtySet: true})
		m := scheme.New(h, nil)
		m.MustEval(`
			(define G (make-guardian))
			(define (spin n)
			  (if (zero? n) 'ok (begin (G (cons n n)) (spin (- n 1)))))`)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MustEval("(spin 100) (collect) (let loop ([x (G)]) (when x (loop (G))))")
		}
	})
}
