package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/heap"
)

// TestTraceEmitsValidJSONLines is the acceptance check for benchgc
// -trace: one valid JSON line per collection, each of which
// round-trips through encoding/json without loss.
func TestTraceEmitsValidJSONLines(t *testing.T) {
	var buf bytes.Buffer
	const gcs = 25
	h, err := runTraceWorkload(&buf, gcs, true)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.Collections != gcs {
		t.Fatalf("workload ran %d collections, want %d", h.Stats.Collections, gcs)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	var prevSeq uint64
	for sc.Scan() {
		line := sc.Bytes()
		lines++
		var ev heap.TraceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, line)
		}
		// Round-trip: marshal the decoded event and decode again; the
		// two decodings must agree field for field.
		re, err := json.Marshal(&ev)
		if err != nil {
			t.Fatalf("line %d does not re-marshal: %v", lines, err)
		}
		var ev2 heap.TraceEvent
		if err := json.Unmarshal(re, &ev2); err != nil {
			t.Fatalf("line %d round-trip decode failed: %v", lines, err)
		}
		if !reflect.DeepEqual(ev, ev2) {
			t.Fatalf("line %d did not round-trip:\n %+v\nvs %+v", lines, ev, ev2)
		}
		if ev.Seq <= prevSeq {
			t.Fatalf("line %d: seq %d not increasing (prev %d)", lines, ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		if ev.PauseNS <= 0 {
			t.Fatalf("line %d: non-positive pause", lines)
		}
		var phaseSum int64
		for _, ns := range ev.PhaseNS {
			phaseSum += ns
		}
		if phaseSum <= 0 || phaseSum > ev.PauseNS {
			t.Fatalf("line %d: phase sum %d vs pause %d", lines, phaseSum, ev.PauseNS)
		}
	}
	if lines != gcs {
		t.Fatalf("emitted %d JSON lines, want one per collection (%d)", lines, gcs)
	}
	// The workload must exercise the phases the paper talks about.
	if h.Stats.GuardianEntriesSalvaged == 0 || h.Stats.GuardianEntriesHeld == 0 {
		t.Fatal("trace workload exercised no guardian salvage/hold")
	}
	if h.Stats.WeakPairsScanned == 0 {
		t.Fatal("trace workload exercised no weak pairs")
	}
}

func TestPhaseSummaryRendersAllPhases(t *testing.T) {
	var sink bytes.Buffer
	h, err := runTraceWorkload(&sink, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 0 {
		t.Fatal("workload emitted JSON with emitJSON=false")
	}
	var buf bytes.Buffer
	printPhaseSummary(&buf, h)
	out := buf.String()
	for _, name := range heap.PhaseNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("phase summary missing %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "collections: 5") {
		t.Fatalf("phase summary missing collection count:\n%s", out)
	}
}

// TestCheckFlags covers every flag combination checkFlags rejects —
// the trace workload with a table flag, -list with -e or -csv, -gcs
// without the trace workload — and the combinations it accepts.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		one                           string
		list, csv, trace, phases, gcs bool
		wantErr                       string
	}{
		{name: "none"},
		{name: "-e", one: "e1"},
		{name: "-e -csv", one: "e1", csv: true},
		{name: "-list", list: true},
		{name: "-csv", csv: true},
		{name: "-trace", trace: true},
		{name: "-phases", phases: true},
		{name: "-trace -phases", trace: true, phases: true},
		{name: "-trace -e", one: "nosuch", trace: true, wantErr: "-trace cannot be combined with -e"},
		{name: "-trace -list", list: true, trace: true, wantErr: "-trace cannot be combined with -list"},
		{name: "-trace -csv", csv: true, trace: true, wantErr: "-trace cannot be combined with -csv"},
		{name: "-phases -e", one: "e1", phases: true, wantErr: "-phases cannot be combined with -e"},
		{name: "-phases -list", list: true, phases: true, wantErr: "-phases cannot be combined with -list"},
		{name: "-phases -csv", csv: true, phases: true, wantErr: "-phases cannot be combined with -csv"},
		{name: "-trace -phases -e", one: "e1", trace: true, phases: true, wantErr: "-trace cannot be combined with -e"},
		{name: "-list -e", one: "e1", list: true, wantErr: "-list cannot be combined with -e"},
		{name: "-list -csv", list: true, csv: true, wantErr: "-list cannot be combined with -csv"},
		{name: "-gcs -e", one: "e7", gcs: true, wantErr: "-gcs needs -trace or -phases"},
		{name: "-gcs", gcs: true, wantErr: "-gcs needs -trace or -phases"},
		{name: "-trace -gcs", trace: true, gcs: true},
		{name: "-phases -gcs", phases: true, gcs: true},
	} {
		err := checkFlags(tc.one, tc.list, tc.csv, tc.trace, tc.phases, tc.gcs)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}
