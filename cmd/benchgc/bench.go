package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// The three JSON-report benchmarks (-server-bench, -fork-bench,
// -tune-bench) share one runner: each
// registers a flag and a default report path here, main dispatches the
// first selected entry, and the shared -out flag overrides the default
// path uniformly. Every report goes through writeBenchReport, which
// re-reads what it wrote and runs the bench's schema self-check before
// the process can exit 0 — CI gates on the file, so a silently
// malformed report must fail the producing run, not the consumer.

// benchEntry is one registered benchmark entry point.
type benchEntry struct {
	name       string // flag name, e.g. "server-bench"
	defaultOut string // report path when -out is not given
	selected   *bool
	run        func(w io.Writer, outPath string) error
}

var benchEntries []benchEntry

// registerBench defines the -<name> flag and records the entry. The
// run closure may read other flag values: it executes after
// flag.Parse.
func registerBench(name, defaultOut, usage string, run func(w io.Writer, outPath string) error) {
	benchEntries = append(benchEntries, benchEntry{
		name:       name,
		defaultOut: defaultOut,
		selected:   flag.Bool(name, false, usage+" and write a JSON report ("+defaultOut+")"),
		run:        run,
	})
}

// dispatchBench runs the first selected registered benchmark,
// resolving its output path from -out. Returns false when no
// benchmark flag was given.
func dispatchBench(w io.Writer, out string) (bool, error) {
	for _, e := range benchEntries {
		if !*e.selected {
			continue
		}
		path := e.defaultOut
		if out != "" {
			path = out
		}
		return true, e.run(w, path)
	}
	return false, nil
}

// writeBenchReport writes rep to path as indented JSON and then
// self-checks it: the file is re-read from disk, decoded into fresh
// (a pointer to a zero value of the report type), and check runs
// against that decoded copy. Checking the re-read bytes rather than
// the in-memory struct catches marshalling losses (dropped fields,
// omitempty surprises) as well as invariant violations.
func writeBenchReport(w io.Writer, label, path string, rep, fresh any, check func() error) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	reread, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("self-check of %s: %w", path, err)
	}
	if err := json.Unmarshal(reread, fresh); err != nil {
		return fmt.Errorf("self-check of %s: %w", path, err)
	}
	if err := check(); err != nil {
		return fmt.Errorf("self-check of %s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: wrote %s\n", label, path)
	return nil
}

// benchQuantiles summarizes a sample of nanosecond figures.
type benchQuantiles struct {
	P50  int64 `json:"p50_ns"`
	P90  int64 `json:"p90_ns"`
	P99  int64 `json:"p99_ns"`
	Max  int64 `json:"max_ns"`
	Mean int64 `json:"mean_ns"`
}

func quantilesOf(ns []int64) benchQuantiles {
	if len(ns) == 0 {
		return benchQuantiles{}
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	at := func(q float64) int64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return benchQuantiles{
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		Max:  sorted[len(sorted)-1],
		Mean: sum / int64(len(sorted)),
	}
}
