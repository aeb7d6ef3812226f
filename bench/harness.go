package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"repro/internal/heap"
)

// options select and shape one run. The zero value of every
// exploration field means "the workload's committed default"; any
// other value makes the run non-canonical.
type options struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	batches  int     // >0: run exactly this many batches instead (exact counts, tests)
	trace    bool    // traced run: per-layer metrics instead of end-to-end ones
	spans    string  // file the kept spans are written to (traced runs)

	executors, gcworkers, workers, mutators int
	tenured                                 int // heap-guardian: tenured registrations, -1 = default

	scale float64 // tests shrink populations and warm-ups; 1 in every real run
	fault string  // tests break a check on purpose: "wrong-reply", "double-register"
}

func (o options) canonical() bool {
	return o.executors == 0 && o.gcworkers == 0 && o.workers == 0 && o.mutators == 0 &&
		o.tenured < 0 && o.scale == 1 && o.fault == "" && o.batches == 0
}

// scaled shrinks a population or warm-up count for tests, never below
// min.
func (o options) scaled(n, min int) int {
	v := int(float64(n) * o.scale)
	if v < min {
		v = min
	}
	return v
}

// workload is one closed-loop load generator with the system it drives.
type workload interface {
	// setup builds the system under test and warms it up with the
	// first operations of the seeded stream.
	setup() error
	// batchOps is the fixed number of operations in one batch.
	batchOps() int
	// runBatch runs the next batch of the stream and appends one
	// latency (ns) per operation.
	runBatch(lat []int64) []int64
	// quiesce waits until the system has no work in flight; what the
	// workload keeps standing (sessions, the rooted heap) stays.
	quiesce() error
	// check runs the end-of-run correctness checks, outside any timing.
	check()
	// layers adds the workload's own per-layer metrics (traced runs).
	layers(m map[string]float64, ph *phase)
	counts() (attempted, failed int64, errs []string)
	close()
}

// env is what a run shares with its workload.
type env struct {
	o       options
	base    time.Time
	gc      *gcAgg // nil in untraced runs
	tracers []*tracer
}

// tracer returns goroutine i's tracer. Call it from set-up only.
func (e *env) tracer(i int) *tracer {
	for len(e.tracers) <= i {
		e.tracers = append(e.tracers, newTracer(e.base))
	}
	return e.tracers[i]
}

func (e *env) setTracing(on bool) {
	for _, t := range e.tracers {
		t.on = on
	}
}

// observe counts h's collections in a traced run.
func (e *env) observe(h *heap.Heap) {
	if e.gc != nil {
		e.gc.attach(h)
	}
}

// opCounts tallies one goroutine's operations.
type opCounts struct {
	attempted, failed int64
	errs              []string
}

// fail counts one failed operation (or end-of-run check) and keeps the
// first few reasons.
func (c *opCounts) fail(format string, args ...any) {
	c.failed++
	c.note(format, args...)
}

// note keeps a reason without counting a failure.
func (c *opCounts) note(format string, args ...any) {
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *opCounts) add(o *opCounts) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, e := range o.errs {
		c.note("%s", e)
	}
}

// phase describes the measured phase to the per-layer emitters.
type phase struct {
	ns         int64 // wall time of all batches
	ops        int64
	tracedOps  int64
	tracedOpNS int64 // summed op latency in traced batches
	// Filled in by the workload's layers():
	mutatorWords uint64 // words the mutators allocated in the phase
	mutators     int    // mutator goroutines
}

type result struct {
	workload  string
	seed      int64
	canonical bool
	attempted int64
	failed    int64
	errs      []string
	batches   int
	measuredS float64
	metrics   map[string]float64 // end-to-end (untraced run) or per-layer (traced run)
}

var workloads = map[string]func(*env) workload{
	"serve-steady":  newServeSteady,
	"serve-churn":   newServeChurn,
	"heap-young":    newHeapYoung,
	"heap-guardian": newHeapGuardian,
	"heap-mutators": newHeapMutators,
}

// workloadOrder lists the workloads of BENCHMARK.json, the ones whose
// end-to-end metrics gate later changes.
var workloadOrder = []string{"serve-steady", "serve-churn", "heap-young", "heap-guardian"}

// ungatedWorkloads run like the others, with every check and every
// metric, but are not in BENCHMARK.json, because as gates they would
// fail unchanged code (README, "Noise"). heap-mutators: with two
// mutators racing, the segment table's high-water mark, and so live_mb,
// differs between identical runs (9.3-15.3 MiB, quartile spreads of 11 %
// and 18 % in two sets of ten, against 0.2-1.5 % on the gated
// workloads), and its two goroutines keep both hyperthreads of the
// host's one core busy, so whatever the neighbours take comes straight
// out of it: timing spreads of 5-11 % in a quiet hour, 27-52 % in a
// busy one.
var ungatedWorkloads = []string{"heap-mutators"}

// setupReps is how many times an untraced run builds and warms the
// system; setup_s is the median, which a single 1-2 s set-up on a
// shared host is too noisy for. The last build is the one measured.
const setupReps = 3

// benchProcs is the GOMAXPROCS every run uses, recorded beside nproc.
const benchProcs = 2

// benchGOGC is the Go collector's target every run sets. At the
// default of 100 a serve-steady run (80-100 MiB live) has a Go
// collection every ~0.7 s, each stretching a few requests to 20-30 ms,
// so about a third of the 0.2 s batches overlap one and op_p95_us, a
// median over batches, sits near the edge between the two kinds. At 400
// a collection comes every ~2.5 s. ops_per_s counts the collections'
// time either way, and the go.* layer metrics report what the Go
// collector costs.
const benchGOGC = 400

func run(o options) (*result, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		names := append(append([]string(nil), workloadOrder...), ungatedWorkloads...)
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	runtime.GOMAXPROCS(benchProcs)
	debug.SetGCPercent(benchGOGC)
	e := &env{o: o, base: time.Now()}
	if o.trace {
		e.gc = &gcAgg{}
	}

	reps := setupReps
	if o.trace || o.scale != 1 {
		reps = 1
	}
	var w workload
	var setups []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			w = nil
			e.tracers = nil
			runtime.GC()
		}
		t0 := time.Now()
		w = mk(e)
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	if e.gc != nil {
		e.gc.reset()
	}
	for _, t := range e.tracers {
		t.reset()
	}
	runtime.GC()

	// Measured phase: fixed-size batches of the seeded stream until the
	// time is up. In a traced run odd batches record spans and even
	// ones do not, so the tracing overhead compares neighbours in time.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gcCPU0 := gcCPUSeconds()
	var ph phase
	var lats [][]int64
	var tracedRates, plainRates []float64
	start := time.Now()
	nb := 0
	for ; ; nb++ {
		if o.batches > 0 {
			if nb >= o.batches {
				break
			}
		} else if nb >= 2 && time.Since(start).Seconds() >= o.seconds {
			break
		}
		traced := o.trace && nb%2 == 1
		e.setTracing(traced)
		lat := make([]int64, 0, w.batchOps())
		t0 := time.Now()
		lat = w.runBatch(lat)
		d := time.Since(t0).Nanoseconds()
		if !o.trace {
			lats = append(lats, lat) // the traced run reports no latency percentiles
		}
		ph.ns += d
		ph.ops += int64(len(lat))
		rate := float64(len(lat)) / (float64(d) / 1e9)
		if traced {
			ph.tracedOps += int64(len(lat))
			for _, l := range lat {
				ph.tracedOpNS += l
			}
			tracedRates = append(tracedRates, rate)
		} else {
			plainRates = append(plainRates, rate)
		}
	}
	e.setTracing(false)
	runtime.ReadMemStats(&ms1)
	gcCPU1 := gcCPUSeconds()
	if err := w.quiesce(); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}

	r := &result{workload: o.workload, seed: o.seed, canonical: o.canonical(), batches: nb,
		measuredS: float64(ph.ns) / 1e9, metrics: map[string]float64{}}
	if !o.trace {
		// ops_per_s and op_p50_us are over the whole measured phase, so
		// anything that costs time anywhere in it shows. op_p95_us is the
		// median over the batches of the batch's own 95th percentile: a
		// pooled tail percentile sits on the edge between two kinds of
		// operation on one workload or another (serve-churn's pooled p95
		// spread 18 % over ten identical runs, its median over batches
		// 7 %; README, "Noise").
		var p95s []float64
		pool := make([]int64, 0, ph.ops)
		for _, lat := range lats {
			slices.Sort(lat)
			p95s = append(p95s, float64(percentile(lat, 95))/1e3)
			pool = append(pool, lat...)
		}
		lats = nil
		slices.Sort(pool)
		r.metrics["setup_s"] = median(setups)
		r.metrics["ops_per_s"] = float64(ph.ops) / (float64(ph.ns) / 1e9)
		r.metrics["op_p50_us"] = float64(percentile(pool, 50)) / 1e3
		r.metrics["op_p95_us"] = median(p95s)
		pool = nil
		// Live Go heap with the system still standing: what a session
		// population or a rooted heap costs in memory.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.metrics["live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	}

	w.check()
	r.attempted, r.failed, r.errs = w.counts()

	if o.trace {
		m := r.metrics
		w.layers(m, &ph)
		e.gc.emit(m, ph.ns, ph.mutatorWords, ph.mutators)
		m["go.mallocs_per_op"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(ph.ops))
		m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		m["go.gc_cpu_share"] = ratio(gcCPU1-gcCPU0, float64(ph.ns)/1e9*benchProcs)
		m["trace.overhead_share"] = 1 - ratio(median(tracedRates), median(plainRates))
		op := sumTotals(e.tracers, spOp)
		m["trace.coverage_share"] = ratio(float64(op.total-op.self), float64(op.total))
		if o.spans != "" {
			if err := writeSpans(o.spans, e.tracers); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return r, nil
}

var procStart = time.Now()

// nanotime is a monotonic clock reading in ns (one clock read, where
// time.Now takes two).
func nanotime() int64 { return int64(time.Since(procStart)) }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// gcCPUSeconds is the CPU time the Go runtime's own collector has used.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64()
	}
	return 0
}
