package heap_test

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/seg"
)

// Unit tests for AdaptivePolicy's feedback loop, driven with synthetic
// CollectionReports so every branch of the tuner is pinned without
// needing a live heap to hit a particular survival rate.

func gen0Report(gen0Words, copied uint64) *heap.CollectionReport {
	return &heap.CollectionReport{Gen: 0, Target: 1, Gen0Words: gen0Words, WordsCopied: copied}
}

func TestAdaptiveTriggerDoublesOnHighSurvival(t *testing.T) {
	p := heap.NewAdaptivePolicy()
	cur := p.InitialTrigger()
	// Survival 0.5 every round: the EMA stays above HighSurvival, so
	// the trigger doubles each collection until the clamp.
	for i := 0; i < 20; i++ {
		next := p.NextTrigger(gen0Report(1000, 500), cur)
		if next != cur*2 && next != heap.AdaptiveMaxTrigger {
			t.Fatalf("round %d: trigger %d -> %d, want doubling toward clamp", i, cur, next)
		}
		cur = next
	}
	if cur != heap.AdaptiveMaxTrigger {
		t.Fatalf("trigger settled at %d, want clamp %d", cur, heap.AdaptiveMaxTrigger)
	}
	if s := p.Survival(); s < heap.AdaptiveHighSurvival {
		t.Fatalf("EMA %v below high mark after all-high samples", s)
	}
}

func TestAdaptiveTriggerHalvesOnLowSurvival(t *testing.T) {
	p := heap.NewAdaptivePolicy()
	cur := p.InitialTrigger()
	// All-garbage nursery: survival 0, trigger halves to the floor.
	for i := 0; i < 20; i++ {
		cur = p.NextTrigger(gen0Report(1000, 0), cur)
	}
	if cur != heap.AdaptiveMinTrigger {
		t.Fatalf("trigger settled at %d, want clamp %d", cur, heap.AdaptiveMinTrigger)
	}
}

func TestAdaptiveTriggerDeadband(t *testing.T) {
	p := heap.NewAdaptivePolicy()
	cur := p.InitialTrigger()
	// Survival 0.10 sits inside (LowSurvival, HighSurvival): no change,
	// however long it persists.
	for i := 0; i < 10; i++ {
		if next := p.NextTrigger(gen0Report(1000, 100), cur); next != cur {
			t.Fatalf("deadband round %d moved trigger %d -> %d", i, cur, next)
		}
	}
}

func TestAdaptiveIgnoresOldGenSurvival(t *testing.T) {
	// Old-generation collections mix old-space survivors into
	// WordsCopied; they must not poison the nursery EMA or move the
	// trigger.
	p := heap.NewAdaptivePolicy()
	cur := p.InitialTrigger()
	rep := &heap.CollectionReport{Gen: 2, Target: 3, Gen0Words: 1000, WordsCopied: 1000}
	if next := p.NextTrigger(rep, cur); next != cur {
		t.Fatalf("old-gen report moved trigger %d -> %d", cur, next)
	}
	if p.Survival() != 0 {
		t.Fatalf("old-gen report fed the EMA: %v", p.Survival())
	}
	// Zero Gen0Words (an explicit back-to-back collection) likewise.
	if next := p.NextTrigger(gen0Report(0, 0), cur); next != cur {
		t.Fatalf("zero-allocation report moved trigger %d -> %d", cur, next)
	}
}

func TestAdaptiveEMASmoothing(t *testing.T) {
	// One high-survival spike after a low steady state must not double
	// the nursery by itself: the EMA (alpha 0.5) needs the signal to
	// persist.
	p := heap.NewAdaptivePolicy()
	cur := p.InitialTrigger()
	for i := 0; i < 6; i++ {
		cur = p.NextTrigger(gen0Report(1000, 100), cur) // survival 0.10
	}
	before := cur
	cur = p.NextTrigger(gen0Report(1000, 900), cur) // one 0.90 spike
	if cur != before*2 {
		// ema = 0.5*0.10 + 0.5*0.90 = 0.50 > HighSurvival: it does
		// react — but check the *second* property: a single low sample
		// after the spike pulls it back inside the band.
		t.Fatalf("spike: trigger %d -> %d (ema %v)", before, cur, p.Survival())
	}
	cur = p.NextTrigger(gen0Report(1000, 0), cur) // survival 0
	// ema = 0.5*0.50 + 0.5*0 = 0.25, still above the band: one more.
	cur = p.NextTrigger(gen0Report(1000, 0), cur)
	if s := p.Survival(); s >= heap.AdaptiveHighSurvival || s <= heap.AdaptiveLowSurvival {
		t.Fatalf("EMA %v not back inside the deadband", s)
	}
}

func TestAdaptiveCadenceLedger(t *testing.T) {
	p := heap.NewAdaptivePolicy()
	const maxGen = 3
	trig := p.InitialTrigger() // DefaultTriggerWords; deadband samples keep it there
	if g := p.CollectGen(1, maxGen); g != 0 {
		t.Fatalf("fresh policy CollectGen = %d, want 0", g)
	}
	// Promote half a budget into generation 1: still a nursery pass.
	half := uint64(trig) // budget(1) = trig << 1
	p.NextTrigger(&heap.CollectionReport{Gen: 0, Target: 1, Gen0Words: half * 10, WordsCopied: half}, trig)
	if g := p.CollectGen(2, maxGen); g != 0 {
		t.Fatalf("half-budget backlog CollectGen = %d, want 0", g)
	}
	// Second half crosses the gen-1 budget: next auto pass collects 1.
	p.NextTrigger(&heap.CollectionReport{Gen: 0, Target: 1, Gen0Words: half * 10, WordsCopied: half}, trig)
	if g := p.CollectGen(3, maxGen); g != 1 {
		t.Fatalf("full-budget backlog CollectGen = %d, want 1", g)
	}
	// Collecting generation 1 resets its ledger and charges gen 2.
	p.NextTrigger(&heap.CollectionReport{Gen: 1, Target: 2, Gen0Words: 0, WordsCopied: half}, trig)
	if g := p.CollectGen(4, maxGen); g != 0 {
		t.Fatalf("post-collection CollectGen = %d, want 0 (ledger not reset?)", g)
	}
}

func TestAdaptiveClonePolicy(t *testing.T) {
	p := &heap.AdaptivePolicy{MinTrigger: 8 * seg.Words, MaxTrigger: 64 * seg.Words, Initial: 32 * seg.Words}
	// Dirty the original's tuning state.
	cur := p.InitialTrigger()
	for i := 0; i < 4; i++ {
		cur = p.NextTrigger(gen0Report(1000, 900), cur)
	}
	if p.Survival() == 0 {
		t.Fatal("setup: original policy has no state to leak")
	}
	c, ok := heap.Policy(p).(heap.PolicyCloner)
	if !ok {
		t.Fatal("*AdaptivePolicy must implement PolicyCloner")
	}
	clone := c.ClonePolicy().(*heap.AdaptivePolicy)
	if clone == p {
		t.Fatal("ClonePolicy returned the receiver")
	}
	if clone.Survival() != 0 {
		t.Fatalf("clone inherited tuning state: EMA %v", clone.Survival())
	}
	if clone.InitialTrigger() != 32*seg.Words {
		t.Fatalf("clone lost configured Initial: %d", clone.InitialTrigger())
	}
	// Bounds travel with the clone: it clamps where the original does.
	cc := clone.InitialTrigger()
	for i := 0; i < 10; i++ {
		cc = clone.NextTrigger(gen0Report(1000, 900), cc)
	}
	if cc != 64*seg.Words {
		t.Fatalf("clone clamped at %d, want configured max %d", cc, 64*seg.Words)
	}
}

// TestAutoTuneHeapsTuneIndependently: two heaps from one Config with
// an AdaptivePolicy must not share tuner state (the resolvePolicy
// ClonePolicy path).
func TestAutoTuneHeapsTuneIndependently(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Policy = &heap.AdaptivePolicy{}
	hot := heap.MustNew(cfg)  // all-garbage churn: trigger shrinks
	cold := heap.MustNew(cfg) // untouched
	start := cold.TriggerWords()
	for i := 0; i < 12; i++ {
		churn(hot, 3000)
		hot.Collect(0)
	}
	if hot.TriggerWords() >= start {
		t.Fatalf("hot heap did not tune down: %d -> %d", start, hot.TriggerWords())
	}
	if cold.TriggerWords() != start {
		t.Fatalf("cold heap's trigger moved with the hot heap's: %d -> %d", start, cold.TriggerWords())
	}
}

// TestAutoTuneChurnVerify runs an AdaptivePolicy heap through a
// trigger-driven churn workload (collections happen only when the tuned
// trigger fires at a Checkpoint, so the adaptive cadence owns the schedule)
// with a full heap Verify after every collection, plus a survivor
// population that swings the survival EMA both ways.
func TestAutoTuneChurnVerify(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.Policy = &heap.AdaptivePolicy{}
	h := heap.MustNew(cfg)
	var collections int
	h.AddPostCollectHook(func(_ *heap.Heap, _ *heap.CollectionReport) { collections++ })
	tc := h.NewRoot(makeTconc(h))
	var ring []*heap.Root
	verified := 0
	seen := 0
	for i := 0; i < 60000; i++ {
		v := h.Cons(fx(int64(i)), obj.Nil)
		if i%64 == 0 {
			h.InstallGuardian(v, tc.Get())
		}
		// A rotating survivor ring: phases of high survival (ring
		// grows) and low survival (pure garbage) move the tuner.
		if i%16 == 0 && (i/10000)%2 == 0 {
			ring = append(ring, h.NewRoot(h.Cons(fx(int64(i)), v)))
			if len(ring) > 512 {
				ring[0].Release()
				ring = ring[1:]
			}
		}
		h.Checkpoint()
		if collections > seen {
			seen = collections
			if errs := h.Verify(); len(errs) > 0 {
				t.Fatalf("step %d, collection %d: %v (%d violations)",
					i, collections, errs[0], len(errs))
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("churn never triggered a collection; the gate verified nothing")
	}
	for {
		if _, ok := tconcGet(h, tc.Get()); !ok {
			break
		}
	}
	h.MustVerify()
}

// TestCollectSteadyStateAllocsAutoTune holds the AdaptivePolicy
// feedback path to the collector's allocation-free steady state: NextTrigger
// runs inside every collection and must not allocate once the
// promotion ledger has grown (trace_test.go pins the static-policy
// case; this is the acceptance criterion's "steady-state collection
// remains allocation-free with tuning enabled").
func TestCollectSteadyStateAllocsAutoTune(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		cfg := heap.DefaultConfig()
		cfg.Workers = 1
		cfg.Policy = &heap.AdaptivePolicy{}
		h := heap.MustNew(cfg)
		lst := h.NewRoot(obj.Nil)
		for i := 0; i < 5000; i++ {
			lst.Set(h.Cons(fx(int64(i)), lst.Get()))
		}
		h.Collect(h.MaxGeneration()) // grows the promotion ledger to maxGen
		h.Collect(h.MaxGeneration())
		steady := func() {
			h.SetCar(lst.Get(), h.Cons(fx(-1), obj.Nil))
			churn(h, 1000)
			h.Collect(0)
		}
		for i := 0; i < 3; i++ {
			steady()
		}
		if avg := testing.AllocsPerRun(20, steady); avg > 0 {
			t.Fatalf("AdaptivePolicy steady-state collection allocates %.1f objects/run, want 0", avg)
		}
	})
}
