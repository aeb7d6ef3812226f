package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"regexp"
	"testing"
	"time"
)

// testOptions runs a workload at 1/200 of its populations and warm-ups
// for a fixed, small number of batches.
func testOptions(workload string) options {
	return options{workload: workload, seed: 1, batches: 2, scale: 1.0 / 200, tenured: -1}
}

func allWorkloads() []string {
	return append(append([]string(nil), workloadOrder...), ungatedWorkloads...)
}

func TestWorkloadsPassTheirChecksAtSmallScale(t *testing.T) {
	for _, wl := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			o := testOptions(wl)
			o.trace = traced
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", wl, traced, r.failed, r.attempted, r.errs)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			known := map[string]bool{}
			for _, d := range defs {
				known[d.name] = true
			}
			for name := range r.metrics {
				if !known[name] {
					t.Errorf("%s traced=%v: metric %q is not in the tables", wl, traced, name)
				}
			}
			if !traced {
				for _, d := range defs {
					if r.metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, r.metrics[d.name])
					}
				}
			} else if c := r.metrics["trace.coverage_share"]; c < 0.9 || c > 1.0001 {
				t.Errorf("%s: layer spans cover %.3f of the op latency", wl, c)
			}
		}
	}
}

// A run whose generator expects a wrong reply, or which registers an
// object twice, must report failed operations and exit non-zero.
func TestBrokenRunsFail(t *testing.T) {
	for wl, fault := range map[string]string{"serve-steady": "wrong-reply", "serve-churn": "wrong-reply", "heap-guardian": "double-register"} {
		o := testOptions(wl)
		o.fault = fault
		if wl == "heap-guardian" {
			o.batches = 4
		}
		r, err := run(o)
		if err != nil {
			t.Fatalf("%s with %s: %v", wl, fault, err)
		}
		if r.failed == 0 {
			t.Errorf("%s with %s: no operation failed", wl, fault)
		}
		if exitCode(r) == 0 {
			t.Errorf("%s with %s: exit code 0", wl, fault)
		}
	}
}

// streamHash hashes the first n operations a workload's generator
// draws at a seed.
func streamHash(workload string, seed int64, n int) uint64 {
	h := fnv.New64a()
	switch workload {
	case "serve-steady":
		g := newServeGen(seed*1000, steadySessions/clientCount)
		for i := 0; i < n; i++ {
			fmt.Fprint(h, g.next())
		}
	case "serve-churn":
		g := newServeGen(seed*1000, churnStanding/clientCount)
		for i := 0; i < n*churnRequests; i++ {
			fmt.Fprint(h, 50+g.r.Intn(151))
		}
	case "heap-young", "heap-mutators":
		g := youngGen{r: newRand(seed * 1000), n: youngSlots}
		for i := 0; i < n; i++ {
			fmt.Fprint(h, g.next())
		}
	case "heap-guardian":
		g := guardGen{r: newRand(seed)}
		for i := 0; i < n; i++ {
			fmt.Fprint(h, g.next())
		}
	}
	return h.Sum64()
}

func TestSeedFixesTheOpStream(t *testing.T) {
	for _, wl := range allWorkloads() {
		a, b, c := streamHash(wl, 1, 5000), streamHash(wl, 1, 5000), streamHash(wl, 2, 5000)
		if a != b {
			t.Errorf("%s: seed 1 gave two different op streams", wl)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", wl)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d", got)
	}
	if got := histPercentile([]int64{0, 3, 0, 1}, 50); got != 1 {
		t.Errorf("histPercentile p50 = %v, want 1", got)
	}
	if got := histPercentile([]int64{0, 3, 0, 1}, 99); got != 3 {
		t.Errorf("histPercentile p99 = %v, want 3", got)
	}
}

// The values are what Python's statistics.quantiles(xs, n=4) and
// statistics.median give for the same ten numbers.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// quantiles -> [10.375, 11.75, 13.25]; median 11.75
	want := (13.25 - 10.375) / 11.75
	if got := quartileSpread(xs); got < want-1e-12 || got > want+1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

// A hand-made span tree: op [0,100] holding a [10,40] (with a' [20,30]
// inside it) and b [50,90].
func TestSelfTime(t *testing.T) {
	tr := newTracer(time.Now())
	tr.on = true
	op := tr.open(spOp, 1, 0)
	a := tr.open(spHeapAlloc, 1, 10)
	tr.child(spHeapStore, 1, 20, 10)
	tr.closeAt(a, 40)
	tr.child(spHeapCollect, 1, 50, 40)
	tr.closeAt(op, 100)
	for _, c := range []struct {
		name        spanName
		total, self int64
	}{{spOp, 100, 30}, {spHeapAlloc, 30, 20}, {spHeapStore, 10, 10}, {spHeapCollect, 40, 40}} {
		if got := tr.totals[c.name]; got.total != c.total || got.self != c.self || got.n != 1 {
			t.Errorf("%s: total %d self %d n %d, want %d %d 1", spanNames[c.name], got.total, got.self, got.n, c.total, c.self)
		}
	}
	if len(tr.spans) != 4 || tr.spans[2].parent != 1 || tr.spans[1].parent != 0 || tr.spans[0].parent != -1 {
		t.Errorf("kept spans have the wrong parents: %+v", tr.spans)
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := writeSpans(path, []*tracer{tr}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first spanRecord
	if err := json.Unmarshal(data[:indexByte(data, '\n')], &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "op" || first.SelfNS != 30 || first.Parent != -1 {
		t.Errorf("first span line = %+v", first)
	}
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return len(b)
}

// The collector's phases, laid out as child spans from its report,
// must account for the span the harness timed around CollectAuto.
func TestPhaseSpansSumToTheCollection(t *testing.T) {
	o := testOptions("heap-young")
	o.trace, o.batches = true, 6
	e := &env{o: o, base: time.Now(), gc: &gcAgg{}}
	w := newHeapYoung(e)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	e.setTracing(true)
	for i := 0; i < 6; i++ {
		w.runBatch(nil)
	}
	var span, phases int64
	tr := e.tracers[0]
	for i := range tr.spans {
		if tr.spans[i].name == spHeapCollect {
			span += tr.spans[i].end - tr.spans[i].start
			phases += tr.spans[i].child
		}
	}
	if span == 0 {
		t.Fatal("no collection was traced")
	}
	if r := float64(phases) / float64(span); r < 0.98 || r > 1.02 {
		t.Errorf("phase spans cover %.4f of the collection spans", r)
	}
}

// BENCHMARK.json at the root is what -manifest prints from the tables
// in this package, and the tables stay inside the driver's limits.
func TestBenchmarkJSONIsTheManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != manifest() {
		t.Errorf("BENCHMARK.json differs from `go run . -manifest`:\n%s", manifest())
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloadOrder {
		if why := workloadWhy[w]; !name.MatchString(w) || why == "" || len(why) > 200 {
			t.Errorf("workload %q: bad name or why", w)
		}
	}
	for _, m := range endToEndMetrics {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %q (%q, bound %v): bad name, unit or bound", m.name, m.unit, m.bound)
		}
	}
	layer := map[string]bool{}
	for _, m := range perLayerMetrics {
		layer[m.name] = true
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
			t.Errorf("metric %q (%q): bad name or unit", m.name, m.unit)
		}
	}
	if len(perLayerMetrics) > 128 || len(workloadOrder) < 2 || len(workloadOrder) > 8 || runSeconds < 1 || runSeconds > 60 {
		t.Errorf("%d per-layer metrics, %d workloads, run_seconds %d", len(perLayerMetrics), len(workloadOrder), runSeconds)
	}
	for _, m := range exactLayerMetrics {
		if !layer[m] {
			t.Errorf("exact metric %q is not a per-layer metric", m)
		}
	}
}
