package server

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/extres"
)

// TestReclaimHistoryRoundTrip decodes exactly what was added: ids out
// of order and far apart, every event kind (extres kinds, ports and
// unknown resources), empty logs, a log longer than a block, and the
// largest latency and counts a record can carry.
func TestReclaimHistoryRoundTrip(t *testing.T) {
	var rh reclaimHistory
	if got := rh.records(); len(got) != 0 {
		t.Fatalf("empty history decodes to %d records", len(got))
	}
	long := make([]reclaimEvent, 3*historyBlock/2)
	for i := range long {
		long[i] = reclaimEvent{kind: int32(i%5) - 2, id: int32(i * 7919)}
	}
	type entry struct {
		rec ReclaimRecord
		log []reclaimEvent
	}
	entries := []entry{
		{ReclaimRecord{ID: 7, Latency: 3 * time.Millisecond, Collections: 1, FinalObjects: 12}, nil},
		{ReclaimRecord{ID: 3, Latency: time.Microsecond, Collections: 2, Ports: 1, Resources: 2},
			[]reclaimEvent{{kind: evPort, id: 4}, {kind: int32(extres.TempFile), id: 9}, {kind: evUnknown, id: 11}}},
		{ReclaimRecord{ID: math.MaxInt64, Latency: math.MaxInt64, FinalObjects: math.MaxUint64,
			Collections: math.MaxInt32, Ports: math.MaxInt32, Resources: math.MaxInt32,
			LeakedPorts: math.MaxInt32, LeakedResources: math.MaxInt32},
			[]reclaimEvent{{kind: math.MaxInt32, id: math.MaxInt32}, {kind: math.MinInt32, id: math.MinInt32}}},
		{ReclaimRecord{ID: -5, Collections: 1}, []reclaimEvent{}},
		{ReclaimRecord{ID: 0, Latency: time.Second, Resources: len(long)}, long},
		{ReclaimRecord{ID: 1, LeakedPorts: 1, LeakedResources: 2},
			[]reclaimEvent{{kind: int32(extres.Malloc), id: 0}}},
	}
	var want []ReclaimRecord
	for _, e := range entries {
		rh.add(&e.rec, e.log)
		e.rec.Log = publicEvents(e.log)
		want = append(want, e.rec)
	}
	if len(rh.blocks) < 2 {
		t.Fatalf("history of %d events fits in %d block(s); the test wants it to span blocks",
			len(long), len(rh.blocks))
	}
	for i, b := range rh.blocks {
		if cap(b) != historyBlock || (i < len(rh.blocks)-1 && len(b) != historyBlock) {
			t.Fatalf("block %d: len %d cap %d, want full blocks of %d", i, len(b), cap(b), historyBlock)
		}
	}
	got := rh.records()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if got[1].Log[0].Kind != "port" || got[1].Log[1].Kind != "tempfile" || got[1].Log[2].Kind != "extres" {
		t.Errorf("event kinds decode as %+v", got[1].Log)
	}
}
