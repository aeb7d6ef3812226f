package heap

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/obj"
	"repro/internal/seg"
)

// The copier's chase copies a list in list order: the forward that
// reaches an ordinary pair carries on down its cdrs while they are
// unforwarded ordinary pairs in from-space. These tests walk the chain
// to each of its stops and end in Verify.

// list builds the ordinary list (first .. first+n-1).
func list(h *Heap, first, n int) obj.Value {
	l := obj.Nil
	for i := first + n - 1; i >= first; i-- {
		l = h.Cons(fix(i), l)
	}
	return l
}

// checkList checks that l holds first .. first+n-1 and ends in tail,
// and returns its last pair.
func checkList(t *testing.T, h *Heap, l obj.Value, first, n int, tail obj.Value) obj.Value {
	t.Helper()
	var last obj.Value
	for i := first; i < first+n; i++ {
		if !l.IsPair() || h.Car(l) != fix(i) {
			t.Fatalf("element %d: %v", i-first, l)
		}
		last, l = l, h.Cdr(l)
	}
	if l != tail {
		t.Fatalf("list of %d ends in %v, want %v", n, l, tail)
	}
	return last
}

// inToSpaceOrder checks that the n pairs from l on were copied in list
// order: each one's successor in the next slot of to-space, or at the
// start of a fresh segment.
func inToSpaceOrder(t *testing.T, h *Heap, l obj.Value, n int) {
	t.Helper()
	for i := 1; i < n; i++ {
		next := h.Cdr(l)
		if next.Addr() != l.Addr()+2 && seg.Offset(next.Addr()) != 0 {
			t.Fatalf("pair %d at %d follows pair %d at %d", i, next.Addr(), i-1, l.Addr())
		}
		l = next
	}
}

// TestChaseSharedTail: two lists share a tail. The first list's chase
// copies the tail; the second's stops at the tail's forwarded head and
// takes its forwarding address, so the tail is copied once and shared.
func TestChaseSharedTail(t *testing.T) {
	h := NewDefault()
	tail := list(h, 100, 5)
	a, b := h.Cons(fix(1), h.Cons(fix(2), tail)), h.Cons(fix(3), tail)
	ra, rb := h.NewRoot(a), h.NewRoot(b)
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.PairsCopied != 8 || h.Stats.SweepPasses != 1 {
		t.Fatalf("%d pairs copied in %d passes, want 8 in 1", h.Stats.PairsCopied, h.Stats.SweepPasses)
	}
	ta := h.Cdr(h.Cdr(ra.Get()))
	if tb := h.Cdr(rb.Get()); ta != tb {
		t.Fatalf("shared tail copied twice: %v and %v", ta, tb)
	}
	checkList(t, h, ta, 100, 5, obj.Nil)
	inToSpaceOrder(t, h, ra.Get(), 7)
	h.MustVerify()
}

// TestChaseCircularList: a cycle closed with SetCdr. The chase meets
// the head it started from, forwarded, and closes the cycle in
// to-space.
func TestChaseCircularList(t *testing.T) {
	h := NewDefault()
	l := list(h, 0, 4)
	h.SetCdr(checkList(t, h, l, 0, 4, obj.Nil), l)
	r := h.NewRoot(l)
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.PairsCopied != 4 {
		t.Fatalf("%d pairs copied, want 4", h.Stats.PairsCopied)
	}
	l = r.Get()
	if last := checkList(t, h, l, 0, 4, l); h.Cdr(last) != l {
		t.Fatal("cycle not closed")
	}
	h.MustVerify()
}

// TestChaseStopsAtOlderTail: a young head on a tenured tail. The chase
// stops at the tail, which stays where it is.
func TestChaseStopsAtOlderTail(t *testing.T) {
	h := NewDefault()
	rt := h.NewRoot(list(h, 10, 3))
	h.Collect(0)
	old := rt.Get()
	if h.Generation(old) != 1 {
		t.Fatalf("tail in generation %d", h.Generation(old))
	}
	r := h.NewRoot(h.Cons(fix(0), h.Cons(fix(1), old)))
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.PairsCopied != 2 {
		t.Fatalf("%d pairs copied, want 2", h.Stats.PairsCopied)
	}
	if got := h.Cdr(h.Cdr(r.Get())); got != old || rt.Get() != old {
		t.Fatalf("tenured tail moved: %v, was %v", got, old)
	}
	checkList(t, h, r.Get(), 0, 2, old)
	h.MustVerify()
}

// TestChaseStopsAtWeakPair: a weak pair inside an ordinary list. The
// chase stops at it; the sweep copies it into weak space and forwards
// its cdr, whose forward chases the rest of the list. Its car is still
// a weak pointer: broken when nothing else holds the referent, kept
// when something does.
func TestChaseStopsAtWeakPair(t *testing.T) {
	for _, keep := range []bool{false, true} {
		h := NewDefault()
		referent := h.MakeString("referent")
		var rr *Root
		if keep {
			rr = h.NewRoot(referent)
		}
		rest := list(h, 10, 3)
		l := h.Cons(fix(0), h.Cons(fix(1), h.WeakCons(referent, rest)))
		r := h.NewRoot(l)
		h.Collect(0)
		w := h.Cdr(h.Cdr(r.Get()))
		if !h.IsWeakPair(w) {
			t.Fatalf("keep=%v: third pair %v is not a weak pair", keep, w)
		}
		checkList(t, h, h.Cdr(w), 10, 3, obj.Nil)
		inToSpaceOrder(t, h, h.Cdr(w), 3)
		switch got := h.Car(w); {
		case keep && got != rr.Get():
			t.Fatalf("live weak referent lost: %v", got)
		case !keep && got != obj.False:
			t.Fatalf("dead weak referent not broken: %v", got)
		}
		h.MustVerify()
	}
}

// TestChaseAcrossTemplateSharedSegments: in a clone, a young list runs
// on into a list in segments shared with the template. A full
// collection chases through the shared segments, privatizing each
// before it writes a forwarding word there; the template's arrays stay
// byte-identical, and a second clone still reads the donor's list.
func TestChaseAcrossTemplateSharedSegments(t *testing.T) {
	donor := NewDefault()
	lst := donor.NewRoot(list(donor, 0, 2*seg.Words))
	donor.Collect(0)
	donor.Collect(1)
	tpl, err := donor.CaptureTemplate()
	if err != nil {
		t.Fatal(err)
	}
	sum := templateChecksum(tpl)

	h, roots, err := CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	shared := roots[lst.idx].Get()
	if h.tab.Info(seg.SegIndexOf(shared.Addr()))&seg.InfoShared == 0 {
		t.Fatal("donor's list is not in a template-shared segment")
	}
	young := h.NewRoot(h.Cons(fix(-2), h.Cons(fix(-1), shared)))
	roots[lst.idx].Release()
	h.Collect(h.MaxGeneration())
	h.MustVerify()
	if h.SharedSegments() != 0 {
		t.Fatalf("%d segments still shared after a full collection", h.SharedSegments())
	}
	checkList(t, h, young.Get(), -2, 2+2*seg.Words, obj.Nil)
	inToSpaceOrder(t, h, young.Get(), 2+2*seg.Words)
	if got := templateChecksum(tpl); got != sum {
		t.Fatalf("template arrays changed: checksum %x, was %x", got, sum)
	}
	h2, roots2, err := CloneFromTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	checkList(t, h2, roots2[lst.idx].Get(), 0, 2*seg.Words, obj.Nil)
	h2.MustVerify()
}

// TestChaseMillionPairList: a list of a million pairs is copied by one
// forward. The goroutine's stack is capped far below what a frame per
// pair would need, so a chase that recursed would exceed it.
func TestChaseMillionPairList(t *testing.T) {
	const n = 1_000_000
	h := NewDefault()
	r := h.NewRoot(list(h, 0, n))
	defer debug.SetMaxStack(debug.SetMaxStack(4 << 20))
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.PairsCopied != n || h.Stats.SweepPasses != 1 {
		t.Fatalf("%d pairs copied in %d passes, want %d in 1", h.Stats.PairsCopied, h.Stats.SweepPasses, n)
	}
	checkList(t, h, r.Get(), 0, n, obj.Nil)
	h.MustVerify()
}

// TestChaseFromDirtyCell: a young list reachable only through a
// remembered store into a tenured pair is copied whole by the dirty
// scan's forward.
func TestChaseFromDirtyCell(t *testing.T) {
	h := NewDefault()
	holder := h.NewRoot(h.Cons(obj.Nil, obj.Nil))
	h.Collect(0)
	h.SetCdr(holder.Get(), list(h, 0, 50))
	if h.DirtyCount() != 1 {
		t.Fatalf("%d dirty cells, want 1", h.DirtyCount())
	}
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.PairsCopied != 50 || h.Stats.DirtyCellsScanned == 0 {
		t.Fatalf("%d pairs copied, %d dirty cells scanned", h.Stats.PairsCopied, h.Stats.DirtyCellsScanned)
	}
	l := h.Cdr(holder.Get())
	checkList(t, h, l, 0, 50, obj.Nil)
	inToSpaceOrder(t, h, l, 50)
	h.MustVerify()
}

// TestChaseGuardedListSalvageOrder: every pair of a dropped list is
// registered with a live guardian, in a shuffled order. Salvage
// forwards each pair in registration order without chasing its cdrs,
// so the tconc receives the pairs in registration order; the sweep
// then finds each cdr forwarded, and the list is whole.
func TestChaseGuardedListSalvageOrder(t *testing.T) {
	const n = 40
	h := NewDefault()
	dummy := h.Cons(obj.False, obj.False)
	tc := h.NewRoot(h.Cons(dummy, dummy))
	l := list(h, 0, n)
	pairs := make([]obj.Value, n)
	for i, p := 0, l; i < n; i, p = i+1, h.Cdr(p) {
		pairs[i] = p
	}
	order := rand.New(rand.NewSource(46)).Perm(n)
	for _, i := range order {
		h.InstallGuardian(pairs[i], tc.Get())
	}
	rep := h.Collect(0)
	if rep.GuardianSalvaged != n {
		t.Fatalf("%d salvaged, want %d", rep.GuardianSalvaged, n)
	}
	var got []obj.Value
	for x := h.Car(tc.Get()); x != h.Cdr(tc.Get()); x = h.Cdr(x) {
		got = append(got, h.Car(x))
	}
	if len(got) != n {
		t.Fatalf("tconc holds %d entries, want %d", len(got), n)
	}
	byID := make([]obj.Value, n)
	for k, i := range order {
		if id := h.Car(got[k]); id != fix(i) {
			t.Fatalf("entry %d is element %v, want %d (registration order)", k, id, i)
		}
		byID[i] = got[k]
	}
	checkList(t, h, byID[0], 0, n, obj.Nil)
	for i := 0; i+1 < n; i++ {
		if h.Cdr(byID[i]) != byID[i+1] {
			t.Fatalf("element %d's cdr is not the salvaged element %d", i, i+1)
		}
	}
	h.MustVerify()
}

// TestChaseNotInSalvage: a tconc reached only through a salvaged
// representative's cdr becomes accessible at the next drain, not
// within the round that salvages the representative, as in the
// paper's loop. Registered in the order c on T2, a on T1, b on T2,
// with T1 rooted, T2 only a's cdr and a, b and c dropped: round 1
// salvages a alone, round 2 enqueues c and then b on T2, and round 3
// finds nothing. A guardian-phase forward that chased a's cdrs would
// make T2 accessible in round 1, salvage b before c, and with
// GuardianSinglePass save b where the paper's loop drops it.
func TestChaseNotInSalvage(t *testing.T) {
	for _, single := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.GuardianSinglePass = single
		h := MustNew(cfg)
		tconc := func() obj.Value {
			d := h.Cons(obj.False, obj.False)
			return h.Cons(d, d)
		}
		t1 := h.NewRoot(tconc())
		t2 := tconc()
		a, b, c := h.Cons(fix(1), t2), h.Cons(fix(2), obj.Nil), h.Cons(fix(3), obj.Nil)
		h.InstallGuardian(c, t2)
		h.InstallGuardian(a, t1.Get())
		h.InstallGuardian(b, t2)
		rep := h.Collect(0)
		wantSalv, wantDrop, wantRounds := uint64(3), uint64(0), 3
		if single {
			wantSalv, wantDrop, wantRounds = 1, 2, 1
		}
		if rep.GuardianSalvaged != wantSalv || rep.GuardianDropped != wantDrop || rep.GuardianRounds != wantRounds {
			t.Fatalf("single=%v: %d salvaged, %d dropped in %d rounds, want %d, %d in %d", single,
				rep.GuardianSalvaged, rep.GuardianDropped, rep.GuardianRounds, wantSalv, wantDrop, wantRounds)
		}
		tc := t1.Get()
		if first := h.Cdr(h.Car(tc)); first != h.Cdr(tc) {
			t.Fatalf("single=%v: T1 holds more than one entry", single)
		}
		sa := h.Car(h.Car(tc))
		if h.Car(sa) != fix(1) {
			t.Fatalf("single=%v: T1 holds %v, want a", single, h.Car(sa))
		}
		tc2 := h.Cdr(sa)
		var got []obj.Value
		for x := h.Car(tc2); x != h.Cdr(tc2); x = h.Cdr(x) {
			got = append(got, h.Car(h.Car(x)))
		}
		want := []obj.Value{fix(3), fix(2)}
		if single {
			want = nil
		}
		if len(got) != len(want) || (len(want) == 2 && (got[0] != want[0] || got[1] != want[1])) {
			t.Fatalf("single=%v: T2 holds %v, want %v", single, got, want)
		}
		h.MustVerify()
	}
}

// The chase caches the last source segment: the from-space test, the
// privatization and the words lookup run only when a cdr leaves it. The
// tests below take the cache to its miss on every step, to a forwarded
// stop on a hit, and past a to-space segment boundary.

// TestChaseAlternatingSegments: a list spliced with SetCdr so that
// consecutive pairs alternate between two from-space segments. Every
// step of the chase leaves the cached segment, and the list is still
// copied whole, in list order.
func TestChaseAlternatingSegments(t *testing.T) {
	const k = 100
	h := NewDefault()
	var bySeg [2][]obj.Value
	segs := [2]int{seg.None, seg.None}
	for len(bySeg[1]) < k {
		p := h.Cons(obj.Nil, obj.Nil)
		idx := seg.SegIndexOf(p.Addr())
		switch {
		case segs[0] == seg.None:
			segs[0] = idx
		case segs[1] == seg.None && idx != segs[0]:
			segs[1] = idx
		}
		for s := range segs {
			if idx == segs[s] && len(bySeg[s]) < k {
				bySeg[s] = append(bySeg[s], p)
			}
		}
	}
	if len(bySeg[0]) < k {
		t.Fatalf("first segment holds %d pairs, want %d", len(bySeg[0]), k)
	}
	var pairs []obj.Value
	for i := 0; i < k; i++ {
		pairs = append(pairs, bySeg[0][i], bySeg[1][i])
	}
	for i, p := range pairs {
		h.SetCar(p, fix(i))
		if i > 0 {
			h.SetCdr(pairs[i-1], p)
		}
	}
	r := h.NewRoot(pairs[0])
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.PairsCopied != 2*k || h.Stats.SweepPasses != 1 {
		t.Fatalf("%d pairs copied in %d passes, want %d in 1", h.Stats.PairsCopied, h.Stats.SweepPasses, 2*k)
	}
	checkList(t, h, r.Get(), 0, 2*k, obj.Nil)
	inToSpaceOrder(t, h, r.Get(), 2*k)
	h.MustVerify()
}

// TestChaseStopsAtForwardedInCachedSegment: a ten-pair list in one
// segment, its sixth pair rooted before its head. The first root's
// forward copies pairs 5..9; the head's chase then copies pairs 0..4
// and meets pair 5, forwarded, in the segment it has cached, and takes
// its forwarding address.
func TestChaseStopsAtForwardedInCachedSegment(t *testing.T) {
	h := NewDefault()
	l := list(h, 0, 10)
	mid := l
	for i := 0; i < 5; i++ {
		mid = h.Cdr(mid)
	}
	if seg.SegIndexOf(mid.Addr()) != seg.SegIndexOf(l.Addr()) {
		t.Fatal("list spans two segments")
	}
	rm := h.NewRoot(mid)
	rl := h.NewRoot(l)
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.PairsCopied != 10 {
		t.Fatalf("%d pairs copied, want 10", h.Stats.PairsCopied)
	}
	checkList(t, h, rm.Get(), 5, 5, obj.Nil)
	if last := checkList(t, h, rl.Get(), 0, 5, rm.Get()); h.Cdr(last) != rm.Get() {
		t.Fatal("pair 4's cdr is not pair 5's copy")
	}
	inToSpaceOrder(t, h, rm.Get(), 5)
	inToSpaceOrder(t, h, rl.Get(), 5)
	h.MustVerify()
}

// TestChaseOpensToSpaceSegment: generation 1's pair segment is part
// full when a 300-pair list is collected into it, so the chase fills it
// from a non-zero offset, opens a fresh segment mid-list and carries on
// there. The full segment's Fill is its size, so the sweep reaches its
// end, and Verify's cursor check finds the open segment's Fill at the
// cursor: the chase wrote both back.
func TestChaseOpensToSpaceSegment(t *testing.T) {
	const n = 300
	h := NewDefault()
	keep := h.NewRoot(list(h, 1000, 10))
	h.Collect(0)
	cur := &h.cur[seg.SpacePair][1]
	first, off := int(cur.seg), int(cur.off)
	if first == seg.None || off == 0 || off+2*n <= seg.Words {
		t.Fatalf("generation 1's pair cursor at segment %d offset %d", first, off)
	}
	r := h.NewRoot(list(h, 0, n))
	h.Stats.Reset()
	h.Collect(0)
	if h.Stats.PairsCopied != n || h.Stats.SweepPasses != 1 {
		t.Fatalf("%d pairs copied in %d passes, want %d in 1", h.Stats.PairsCopied, h.Stats.SweepPasses, n)
	}
	if got := h.tab.Seg(first).Fill; got != seg.Words {
		t.Fatalf("handed-over segment's Fill %d, want %d", got, seg.Words)
	}
	if int(cur.seg) == first || int(cur.off) != 2*n-(seg.Words-off) {
		t.Fatalf("cursor at segment %d offset %d, want a fresh segment at %d", cur.seg, cur.off, 2*n-(seg.Words-off))
	}
	if seg.Offset(r.Get().Addr()) != off {
		t.Fatalf("list head at offset %d, want %d", seg.Offset(r.Get().Addr()), off)
	}
	checkList(t, h, r.Get(), 0, n, obj.Nil)
	inToSpaceOrder(t, h, r.Get(), n)
	checkList(t, h, keep.Get(), 1000, 10, obj.Nil)
	h.MustVerify()
}
