package experiments_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/seg"
)

func colValue(t *testing.T, tb experiments.Table, row int, col string) string {
	t.Helper()
	for i, h := range tb.Header {
		if h == col {
			return tb.Rows[row][i]
		}
	}
	t.Fatalf("%s: no column %q", tb.ID, col)
	return ""
}

func colInt(t *testing.T, tb experiments.Table, row int, col string) int {
	t.Helper()
	v, err := strconv.Atoi(colValue(t, tb, row, col))
	if err != nil {
		t.Fatalf("%s: column %q row %d not an int: %v", tb.ID, col, row, err)
	}
	return v
}

// The experiment tables must reproduce the paper's *shape*: who wins,
// and in which direction the work counters move. These tests assert
// the shapes on the deterministic counter columns (never on wall
// time).

func TestE1Shape(t *testing.T) {
	tb := experiments.E1()
	if len(tb.Rows) != 4 {
		t.Fatalf("E1 rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if got := colInt(t, tb, i, "guardian entries scanned/gc"); got != 0 {
			t.Errorf("E1 row %d: guardian scanned %d entries at gen-0 collections, want 0", i, got)
		}
	}
	// Weak-list scan grows with N.
	small := colInt(t, tb, 1, "weak-list cells scanned/scan")
	large := colInt(t, tb, 3, "weak-list cells scanned/scan")
	if large <= small*10 {
		t.Errorf("E1: weak-list scan should grow ~linearly: %d vs %d", small, large)
	}
}

func TestE2Shape(t *testing.T) {
	tb := experiments.E2()
	for i := range tb.Rows {
		dropped := colInt(t, tb, i, "dropped")
		removed := colInt(t, tb, i, "entries removed")
		if removed != dropped {
			t.Errorf("E2 row %d: removed %d, want exactly the %d dropped", i, removed, dropped)
		}
		if cells := colInt(t, tb, i, "weak-list cells"); cells != 10000 {
			t.Errorf("E2 row %d: weak-list scanned %d cells, want full 10000", i, cells)
		}
	}
}

func TestE3Shape(t *testing.T) {
	tb := experiments.E3()
	guardedAfter := colInt(t, tb, 0, "entries after drop+gc")
	unguardedAfter := colInt(t, tb, 1, "entries after drop+gc")
	if guardedAfter != 10000 {
		t.Errorf("E3: guarded table kept %d entries, want 10000", guardedAfter)
	}
	if unguardedAfter != 20000 {
		t.Errorf("E3: unguarded table kept %d entries, want all 20000", unguardedAfter)
	}
	gw := colInt(t, tb, 0, "heap words live")
	uw := colInt(t, tb, 1, "heap words live")
	if gw >= uw {
		t.Errorf("E3: guarded residency %d should be below unguarded %d", gw, uw)
	}
}

func TestE4Shape(t *testing.T) {
	tb := experiments.E4()
	naive := colInt(t, tb, 0, "keys rehashed/gc")
	transport := colInt(t, tb, 1, "keys rehashed/gc")
	if transport != 0 {
		t.Errorf("E4: transport mode rehashed %d keys per young gc, want 0", transport)
	}
	if naive != 5000 {
		t.Errorf("E4: rehash-all should pay all 5000 keys per gc, got %d", naive)
	}
}

func TestE5Shape(t *testing.T) {
	tb := experiments.E5()
	if leaked := colInt(t, tb, 0, "leaked fds"); leaked != 0 {
		t.Errorf("E5: guarded mode leaked %d fds", leaked)
	}
	if lost := colInt(t, tb, 0, "bytes lost"); lost != 0 {
		t.Errorf("E5: guarded mode lost %d bytes", lost)
	}
	if leaked := colInt(t, tb, 1, "leaked fds"); leaked != 500 {
		t.Errorf("E5: plain mode should leak all 500 fds, leaked %d", leaked)
	}
	if lost := colInt(t, tb, 1, "bytes lost"); lost == 0 {
		t.Error("E5: plain mode should lose buffered bytes")
	}
}

func TestE6Shape(t *testing.T) {
	tb := experiments.E6()
	created := colInt(t, tb, 0, "objects created")
	reused := colInt(t, tb, 0, "objects reused")
	if created != 1 || reused != 199 {
		t.Errorf("E6: pool created=%d reused=%d, want 1/199", created, reused)
	}
	if colInt(t, tb, 1, "objects created") != 200 {
		t.Error("E6: fresh mode should create every round")
	}
}

func TestE7Shape(t *testing.T) {
	tb := experiments.E7()
	if len(tb.Rows) != 2 {
		t.Fatalf("E7 rows = %d", len(tb.Rows))
	}
}

func TestE8Shape(t *testing.T) {
	tb := experiments.E8()
	for i := range tb.Rows {
		if got := colInt(t, tb, i, "finalized"); got != 20000 {
			t.Errorf("E8 row %d: finalized %d of 20000", i, got)
		}
	}
	if colValue(t, tb, 0, "object preserved") != "yes" {
		t.Error("E8: guardians must preserve the object")
	}
	if colValue(t, tb, 2, "alloc in cleanup") == "yes" {
		t.Error("E8: register-for-finalization must not allow allocation")
	}
}

func TestA1Shape(t *testing.T) {
	tb := experiments.A1()
	// Rows: (10000 dirty), (10000 scan-all), (100000 dirty), (100000 scan-all)
	dirtySmall := colInt(t, tb, 0, "old cells visited/gc")
	scanSmall := colInt(t, tb, 1, "old cells visited/gc")
	dirtyLarge := colInt(t, tb, 2, "old cells visited/gc")
	scanLarge := colInt(t, tb, 3, "old cells visited/gc")
	// The remembered set is one mark per segment: the one mutated
	// segment is read once, its words examined, and skipped by the
	// rounds after, whatever the old heap's size.
	if dirtySmall > seg.Words || dirtyLarge != dirtySmall {
		t.Errorf("A1: dirty set visits %d / %d cells, want at most one segment's %d at both sizes",
			dirtySmall, dirtyLarge, seg.Words)
	}
	if scanLarge < scanSmall*5 {
		t.Errorf("A1: scan-all should grow with the old heap: %d vs %d", scanSmall, scanLarge)
	}
}

func TestA2Shape(t *testing.T) {
	tb := experiments.A2()
	freshSmall := colInt(t, tb, 0, "weak pairs visited/gc")
	scanSmall := colInt(t, tb, 1, "weak pairs visited/gc")
	scanLarge := colInt(t, tb, 3, "weak pairs visited/gc")
	if freshSmall != 0 {
		t.Errorf("A2: paper design visited %d tenured weak pairs at young gcs, want 0", freshSmall)
	}
	if scanLarge < scanSmall*5 {
		t.Errorf("A2: scan-all-weak should grow with weak population: %d vs %d", scanSmall, scanLarge)
	}
}

func TestA3Shape(t *testing.T) {
	tb := experiments.A3()
	dataSwept := colInt(t, tb, 0, "cells swept/gc")
	vecSwept := colInt(t, tb, 1, "cells swept/gc")
	if vecSwept < dataSwept*10 {
		t.Errorf("A3: vector representation should sweep far more cells: %d vs %d", dataSwept, vecSwept)
	}
}

func TestE9Shape(t *testing.T) {
	tb := experiments.E9()
	prunedBefore := colInt(t, tb, 0, "interned before churn")
	prunedAfter := colInt(t, tb, 0, "after churn+gc")
	strongAfter := colInt(t, tb, 1, "after churn+gc")
	if prunedAfter > prunedBefore+100 {
		t.Errorf("E9: pruning left %d symbols (base %d)", prunedAfter, prunedBefore)
	}
	if strongAfter < prunedBefore+20000 {
		t.Errorf("E9: strong oblist should retain all 20000 churned symbols, has %d", strongAfter)
	}
	pw := colInt(t, tb, 0, "heap words live")
	sw := colInt(t, tb, 1, "heap words live")
	if pw*2 > sw {
		t.Errorf("E9: pruned residency %d should be well below strong %d", pw, sw)
	}
}

func TestA4Shape(t *testing.T) {
	tb := experiments.A4()
	// Rows alternate iterated/single for each depth.
	for i := 0; i < len(tb.Rows); i += 2 {
		depth := colInt(t, tb, i, "chain depth")
		iterLinks := colInt(t, tb, i, "links delivered after 1 gc")
		singleLinks := colInt(t, tb, i+1, "links delivered after 1 gc")
		if colValue(t, tb, i, "payload reached") != "yes" {
			t.Errorf("A4 depth %d: paper variant did not reach the payload", depth)
		}
		if iterLinks != depth {
			t.Errorf("A4 depth %d: iterated delivered %d links, want %d", depth, iterLinks, depth)
		}
		if depth > 1 && colValue(t, tb, i+1, "payload reached") == "yes" {
			t.Errorf("A4 depth %d: single pass should NOT reach the payload", depth)
		}
		if singleLinks >= iterLinks {
			t.Errorf("A4 depth %d: single pass delivered %d >= iterated %d",
				depth, singleLinks, iterLinks)
		}
	}
}

func TestRenderAndLookup(t *testing.T) {
	var sb strings.Builder
	tb := experiments.E7()
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"E7", "paper:", "time/op"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if _, ok := experiments.Lookup("e1"); !ok {
		t.Error("Lookup(e1) failed")
	}
	if _, ok := experiments.Lookup("zz"); ok {
		t.Error("Lookup(zz) should fail")
	}
	if len(experiments.All()) != 13 {
		t.Errorf("All() = %d experiments, want 13", len(experiments.All()))
	}
	var csv strings.Builder
	tb.RenderCSV(&csv)
	if !strings.Contains(csv.String(), "operation,ops,time/op") {
		t.Errorf("CSV render missing header: %q", csv.String())
	}
}
