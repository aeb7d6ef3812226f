// Command benchgc runs the reproduction experiments and prints their
// tables. Each experiment regenerates one claim or figure of the
// paper; EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	benchgc            # run every experiment
//	benchgc -e e4      # run one experiment by id
//	benchgc -list      # list experiment ids
//	benchgc -trace     # run the trace workload; one JSON line per collection
//	benchgc -phases    # run the trace workload; per-phase pause summary
//	benchgc -trace -phases -gcs 100   # both, over 100 collections
//	benchgc -server-bench             # multi-session server churn -> BENCH_server.json
//	benchgc -fork-bench               # template-clone vs prelude session boot -> BENCH_fork.json
//	benchgc -tune-bench               # AutoTune vs fixed policy ablation -> BENCH_tune.json
//	benchgc -server-bench -out /tmp/s.json   # any bench; -out overrides its default path
//
// See docs/ALGORITHM.md ("Reading benchgc -trace output") for the
// trace record schema.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		one    = flag.String("e", "", "run a single experiment by id (e1..e9, a1..a4)")
		list   = flag.Bool("list", false, "list experiments and exit")
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		trace  = flag.Bool("trace", false, "run the GC trace workload and emit one JSON line per collection")
		phases = flag.Bool("phases", false, "run the GC trace workload and print a per-phase pause summary")
		gcs    = flag.Int("gcs", 50, "number of collections for -trace/-phases")
		out    = flag.String("out", "", "output path for the selected -*-bench report (default: that bench's BENCH_*.json)")

		serverSessions = flag.Int("server-sessions", 10000, "standing session population for -server-bench")
		serverChurn    = flag.Int("server-churn", 2000, "register/run/disconnect cycles for -server-bench")
		forkSessions   = flag.Int("fork-sessions", 5000, "sessions per boot mode for -fork-bench")
		tuneReps       = flag.Int("tune-reps", 5, "repetitions per workload x policy cell for -tune-bench")
		tuneOps        = flag.Int("tune-ops", tuneDefaultOps, "per-rep operation count for -tune-bench workloads")
	)
	registerBench("server-bench", "BENCH_server.json",
		"run the multi-session server benchmark (standing population + churn)",
		func(w io.Writer, path string) error {
			return runServerBench(w, path, *serverSessions, *serverChurn)
		})
	registerBench("fork-bench", "BENCH_fork.json",
		"run the heap-template boot benchmark (template clone vs prelude boot, COW fault cost)",
		func(w io.Writer, path string) error { return runForkBench(w, path, *forkSessions) })
	registerBench("tune-bench", "BENCH_tune.json",
		"run the AutoTune-vs-fixed-policy ablation (gcbench/hashtable/recycle workloads)",
		func(w io.Writer, path string) error { return runTuneBench(w, path, *tuneReps, *tuneOps) })
	flag.Parse()

	if ran, err := dispatchBench(os.Stdout, *out); ran {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgc: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *trace || *phases {
		h, err := runTraceWorkload(os.Stdout, *gcs, *trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgc: %v\n", err)
			os.Exit(1)
		}
		if *phases {
			printPhaseSummary(os.Stdout, h)
		}
		return
	}
	render := func(t experiments.Table) {
		if *csv {
			t.RenderCSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return
	}
	if *one != "" {
		e, ok := experiments.Lookup(*one)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgc: unknown experiment %q (try -list)\n", *one)
			os.Exit(1)
		}
		render(e.Run())
		return
	}
	fmt.Println("Guardians in a Generation-Based Garbage Collector (PLDI 1993)")
	fmt.Println("reproduction experiments (E1–E9, A1–A4); see EXPERIMENTS.md for expected shapes")
	fmt.Println()
	for _, e := range experiments.All() {
		render(e.Run())
	}
}
