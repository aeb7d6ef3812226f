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
//
// -trace and -phases run the trace workload instead of the tables, so
// neither combines with -e, -list or -csv; -gcs sizes that workload, so
// it needs one of them; and -list combines with neither -e nor -csv:
// such a command line is a usage error (exit status 2).
//
// See docs/ALGORITHM.md ("Reading benchgc -trace output") for the
// trace record schema. Throughput and latency numbers come from the
// repository benchmark, bench/ (bash bench/run.sh), not from here.
package main

import (
	"errors"
	"flag"
	"fmt"
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
	)
	flag.Parse()
	gcsSet := false
	flag.Visit(func(f *flag.Flag) { gcsSet = gcsSet || f.Name == "gcs" })
	if err := checkFlags(*one, *list, *csv, *trace, *phases, gcsSet); err != nil {
		fmt.Fprintf(os.Stderr, "benchgc: %v\n", err)
		flag.Usage()
		os.Exit(2)
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

// checkFlags rejects the flag combinations that ask for two different
// runs — the trace workload (-trace, -phases, which combine with each
// other) with the experiment tables (-e, -list, -csv), and the list of
// experiments with one experiment's table (-list with -e) — and those
// that set something the run ignores: -csv with the list, and the trace
// workload's size (-gcs, gcs here) without the workload.
func checkFlags(one string, list, csv, trace, phases, gcs bool) error {
	workload := ""
	switch {
	case trace:
		workload = "-trace"
	case phases:
		workload = "-phases"
	}
	if workload != "" {
		for _, f := range []struct {
			set  bool
			name string
		}{{one != "", "-e"}, {list, "-list"}, {csv, "-csv"}} {
			if f.set {
				return fmt.Errorf("%s cannot be combined with %s", workload, f.name)
			}
		}
	}
	if list && one != "" {
		return errors.New("-list cannot be combined with -e")
	}
	if list && csv {
		return errors.New("-list cannot be combined with -csv")
	}
	if gcs && workload == "" {
		return errors.New("-gcs needs -trace or -phases")
	}
	return nil
}
