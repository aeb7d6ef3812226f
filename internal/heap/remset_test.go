package heap_test

import (
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
)

// Tests for the sharded remembered set: the map-vs-sharded lockstep
// oracle, and the DirtyCount / Census reporting contract.

// TestRemsetMapOracle cross-checks the sharded remembered set against
// the retired map-based implementation, which is kept as a sequential
// reference (remset_oracle.go). The same seeded workload drives a
// map-remset heap and a sharded heap in lockstep; after every
// collection the surviving object graphs must be isomorphic and the
// guardian/weak outcomes and deduplicated dirty counts identical.
func TestRemsetMapOracle(t *testing.T) {
	for _, seed := range []int64{3, 20260806} {
		t.Run(fmt.Sprintf("workers=1/seed=%d", seed), func(t *testing.T) {
			a := newOracleHeap(nil)
			heap.EnableMapRemsetOracle(a.h)
			if !heap.UsesMapRemset(a.h) {
				t.Fatal("map-oracle mode did not engage")
			}
			b := newOracleHeap(func(cfg *heap.Config) { cfg.Workers = 1 })
			runOracleLockstep(t, seed, 2000, a, b, "map-remset", "sharded-remset")
		})
	}
}

// TestDirtyCountContract pins down the DirtyCount contract: the
// deduplicated number of distinct remembered cell addresses, valid at
// any time — mid-mutation, from a post-collect hook, and after
// collections have retired entries — with Census reporting the same
// figure and the per-shard sizes summing to it.
func TestDirtyCountContract(t *testing.T) {
	h := heap.NewDefault()
	oldA := h.NewRoot(h.Cons(obj.False, obj.Nil))
	oldB := h.NewRoot(h.Cons(obj.False, obj.Nil))
	h.Collect(0)
	h.Collect(1) // tenure both pairs to generation 2
	if got := h.DirtyCount(); got != 0 {
		t.Fatalf("clean tenured heap has DirtyCount %d", got)
	}

	young := h.NewRoot(h.Cons(obj.FromFixnum(1), obj.Nil))
	// Dedup: re-writing one cell any number of times counts once.
	for i := 0; i < 10; i++ {
		h.SetCar(oldA.Get(), young.Get())
	}
	if got := h.DirtyCount(); got != 1 {
		t.Fatalf("10 writes to one cell: DirtyCount %d, want 1", got)
	}
	// A distinct cell counts separately.
	h.SetCdr(oldB.Get(), young.Get())
	if got := h.DirtyCount(); got != 2 {
		t.Fatalf("two distinct cells: DirtyCount %d, want 2", got)
	}
	// Immediate stores are not remembered (nothing for a young
	// collection to find), so the count is unchanged.
	h.SetCar(oldB.Get(), obj.FromFixnum(7))
	if got := h.DirtyCount(); got != 2 {
		t.Fatalf("immediate store changed DirtyCount to %d", got)
	}

	// Census reports the same deduplicated figure, with shard sizes
	// summing to it.
	c := h.Census()
	if c.RemSetCells != h.DirtyCount() {
		t.Fatalf("Census.RemSetCells %d != DirtyCount %d", c.RemSetCells, h.DirtyCount())
	}
	if len(c.RemSetShards) != heap.RemShards {
		t.Fatalf("Census.RemSetShards has %d entries, want %d", len(c.RemSetShards), heap.RemShards)
	}
	sum := 0
	for _, n := range c.RemSetShards {
		sum += n
	}
	if sum != c.RemSetCells {
		t.Fatalf("shard sizes sum to %d, want %d", sum, c.RemSetCells)
	}

	// During a collection, a post-collect hook sees the set the *next*
	// dirty scan will start from: retirement and the weak pass's
	// re-insertions are complete before hooks run, so the hook's view
	// equals the post-collection view.
	var fromHook = -1
	h.AddPostCollectHook(func(hh *heap.Heap, _ *heap.CollectionReport) { fromHook = hh.DirtyCount() })
	h.Collect(0) // young referent promoted to gen 1: both cells still point younger
	if fromHook != h.DirtyCount() {
		t.Fatalf("hook saw DirtyCount %d, after collection %d", fromHook, h.DirtyCount())
	}
	if got := h.DirtyCount(); got != 2 {
		t.Fatalf("after Collect(0): DirtyCount %d, want 2 (cells still point gen1 < gen2)", got)
	}
	// Collecting generation 1 promotes the referent next to the cells'
	// generation; the entries retire and the count drops to zero.
	h.Collect(1)
	if got := h.DirtyCount(); got != 0 {
		t.Fatalf("after Collect(1): DirtyCount %d, want 0 (entries retired)", got)
	}
	h.MustVerify()
	_ = young
}

// TestRemSetShardSizes checks the reporting surface of the sharded
// set: RemSetShardSizes sums to DirtyCount, indexes shards stably, and
// degrades to nil in the map-oracle configuration (Census likewise).
func TestRemSetShardSizes(t *testing.T) {
	h := heap.NewDefault()
	old := h.NewRoot(h.List(obj.False, obj.False, obj.False, obj.False))
	h.Collect(0)
	h.Collect(1)
	young := h.NewRoot(h.Cons(obj.FromFixnum(9), obj.Nil))
	for v := old.Get(); v.IsPair(); v = h.Cdr(v) {
		h.SetCar(v, young.Get())
	}
	sizes := h.RemSetShardSizes()
	if len(sizes) != heap.RemShards {
		t.Fatalf("RemSetShardSizes has %d entries, want %d", len(sizes), heap.RemShards)
	}
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	if sum != h.DirtyCount() || sum != 4 {
		t.Fatalf("shard sizes sum to %d, DirtyCount %d, want 4", sum, h.DirtyCount())
	}

	m := heap.NewDefault()
	heap.EnableMapRemsetOracle(m)
	mo := m.NewRoot(m.Cons(obj.False, obj.Nil))
	m.Collect(0)
	m.Collect(1)
	m.SetCar(mo.Get(), m.Cons(obj.FromFixnum(1), obj.Nil))
	if m.DirtyCount() != 1 {
		t.Fatalf("map oracle DirtyCount %d, want 1", m.DirtyCount())
	}
	if m.RemSetShardSizes() != nil {
		t.Fatal("map oracle should have no shard sizes")
	}
	if c := m.Census(); c.RemSetShards != nil || c.RemSetCells != 1 {
		t.Fatalf("map oracle census: shards %v, cells %d", c.RemSetShards, c.RemSetCells)
	}
}

// TestDirtyScanPhaseAttribution checks that remembered-set scan time
// lands in the dedicated dirty-scan phase column (and not in old-scan,
// which is reserved for the conservative full scan).
func TestDirtyScanPhaseAttribution(t *testing.T) {
	h := heap.NewDefault()
	old := h.NewRoot(h.Cons(obj.False, obj.Nil))
	h.Collect(0)
	h.Collect(1)
	h.SetCar(old.Get(), h.Cons(obj.FromFixnum(1), obj.Nil))
	rep := h.Collect(0)
	if rep.Phases[heap.PhaseDirtyScan] <= 0 {
		t.Fatal("dirty-scan phase recorded no time for a dirty-set collection")
	}
	if rep.Phases[heap.PhaseOldScan] != 0 {
		t.Fatal("old-scan phase accrued time with the dirty set enabled")
	}
	// Per-shard counts surface in the report and the trace event, and
	// sum to the collection's DirtyCellsScanned delta.
	h.EnableTrace(4)
	h.SetCar(old.Get(), h.Cons(obj.FromFixnum(2), obj.Nil))
	rep = h.Collect(0)
	var sum uint64
	for _, n := range rep.ShardDirty {
		sum += n
	}
	if sum != rep.DirtyCellsScanned {
		t.Fatalf("ShardDirty sums to %d, DirtyCellsScanned delta %d",
			sum, rep.DirtyCellsScanned)
	}
	evs := h.TraceEvents()
	ev := evs[len(evs)-1]
	if len(ev.DirtyShardCells) != heap.RemShards {
		t.Fatalf("trace DirtyShardCells has %d entries, want %d", len(ev.DirtyShardCells), heap.RemShards)
	}
	var tsum uint64
	for _, n := range ev.DirtyShardCells {
		tsum += n
	}
	if tsum != ev.DirtyCellsScanned {
		t.Fatalf("trace shard cells sum to %d, event DirtyCellsScanned %d", tsum, ev.DirtyCellsScanned)
	}
}
