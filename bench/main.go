// Command bench is the repository's one benchmark: five closed-loop
// workloads over the server, the Scheme machine and the heap, five
// end-to-end metrics, and a traced run that attributes the time to
// layers. See README.md beside this file and BENCHMARK.json at the
// root of the repository.
//
//	bash bench/run.sh --workload heap-young --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is for
// people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// watchdog ends a run that has stopped making progress (a server that
// no longer answers would otherwise block a client for ever).
const watchdog = 170 * time.Second

func main() {
	var o options
	var trace int
	var selfcheck bool
	var runs int
	flag.StringVar(&o.workload, "workload", "", "serve-steady, serve-churn, heap-young, heap-guardian; or heap-mutators (not in BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics; 0: prints the end-to-end metrics")
	flag.StringVar(&o.spans, "spans", "", "traced run: write the spans to this file as JSON lines")
	flag.IntVar(&o.batches, "batches", 0, "run exactly this many batches instead of -seconds (exact per-layer counts)")
	flag.IntVar(&o.executors, "executors", 0, "exploration: server executors (default 1)")
	flag.IntVar(&o.gcworkers, "gcworkers", 0, "exploration: server GC workers (default 1)")
	flag.IntVar(&o.workers, "workers", 0, "exploration: collector workers per heap (default 1)")
	flag.IntVar(&o.mutators, "mutators", 0, "exploration: heap-mutators goroutines (default 2)")
	flag.IntVar(&o.tenured, "tenured", -1, "exploration: heap-guardian tenured registrations (default 20000)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload in two alternating sets and compare their medians with the bounds")
	flag.IntVar(&runs, "runs", 5, "selfcheck: runs per set")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the tables in this package define it")
	flag.Parse()
	if *printManifest {
		fmt.Print(manifest())
		return
	}
	o.scale = 1
	o.trace = trace != 0 || o.spans != ""

	if selfcheck {
		os.Exit(runSelfcheck(runs, o.seconds))
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "bench: no result after", watchdog)
		os.Exit(3)
	})
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	printResult(r, o.trace)
	os.Exit(exitCode(r))
}

// exitCode is non-zero when any operation or end-of-run check failed.
func exitCode(r *result) int {
	if r.failed != 0 {
		return 1
	}
	return 0
}

// hostBlock is recorded with every run: the numbers mean nothing
// without the machine shape they were taken on.
func hostBlock() map[string]any {
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": benchProcs, "gogc": benchGOGC, "go": runtime.Version()}
}

// outMetric is one entry of the result line's metrics object.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the run for people, then the contract's result
// line: exactly correct, attempted, failed and metrics.
func printResult(r *result, traced bool) {
	head, _ := json.Marshal(map[string]any{"workload": r.workload, "seed": r.seed, "canonical": r.canonical,
		"traced": traced, "batches": r.batches, "measured_s": r.measuredS, "host": hostBlock(),
		"ops_attempted": r.attempted, "ops_ok": r.attempted - r.failed, "ops_failed": r.failed})
	fmt.Println(string(head))
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	out := make(map[string]outMetric, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name]
		out[d.name] = outMetric{v, d.unit}
		fmt.Printf("%-46s %16.4f %s\n", d.name, v, d.unit)
	}
	var stray []string
	for name := range r.metrics {
		if _, ok := out[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 { // a metric computed under a name the tables do not list is a bug
		sort.Strings(stray)
		fmt.Fprintln(os.Stderr, "bench: metrics outside the tables:", stray)
		os.Exit(2)
	}
	for _, e := range r.errs {
		fmt.Println("FAILED:", e)
	}
	line, _ := json.Marshal(map[string]any{"correct": r.failed == 0, "attempted": r.attempted,
		"failed": r.failed, "metrics": out})
	fmt.Println(string(line))
}
