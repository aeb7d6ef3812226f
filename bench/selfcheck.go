package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// -selfcheck asks the question a reviewer of a later change has to
// ask first: do two sets of runs of the same code agree within the
// benchmark's own bounds? Each run is a fresh process, as the driver's
// are, and the sets alternate (A B A B ...) so that a slow spell of the
// host falls on both.

type runLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// child runs this binary once and parses the result line.
func child(args ...string) (*runLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r runLine
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", strings.Join(args, " "), err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("%s: %d of %d operations failed", strings.Join(args, " "), r.Failed, r.Attempted)
	}
	return &r, nil
}

func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSelfcheck prints a markdown report and returns the exit code.
func runSelfcheck(runs int, seconds float64) int {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d GOGC=%d %s %s/%s, git %s\n\n", runtime.NumCPU(), benchProcs, benchGOGC,
		runtime.Version(), runtime.GOOS, runtime.GOARCH, gitRevision())
	fmt.Printf("%d runs a set, two alternating sets, %.0f s measured a run, seeds 1..%d.\n", runs, seconds, 2*runs)
	fmt.Println("spread = (Q3 - Q1) / median over all runs of both sets; diff = |median A - median B| / median A.")
	fmt.Println()
	fmt.Println("| workload | metric | median A | median B | diff | spread | bound | |")
	fmt.Println("|---|---|---:|---:|---:|---:|---:|---|")
	bad := 0
	for _, wl := range workloadOrder {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runs; i++ {
			r, err := child("-workload", wl, "-seed", strconv.Itoa(i+1), "-seconds", fmt.Sprint(seconds), "-trace", "0")
			if err != nil {
				fmt.Println("FAILED:", err)
				return 1
			}
			for name, m := range r.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		for _, d := range endToEndMetrics {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			diff := ratio(mb-ma, ma)
			if diff < 0 {
				diff = -diff
			}
			spread := quartileSpread(append(append([]float64(nil), a...), b...))
			verdict := "ok"
			if diff > d.bound || (d.name != "setup_s" && spread > d.bound) {
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Printf("| %s | %s (%s) | %.4g | %.4g | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl, d.name, d.unit, ma, mb, 100*diff, 100*spread, 100*d.bound, verdict)
		}
	}

	fmt.Println()
	fmt.Println("Exact per-layer counts: two traced runs of a fixed number of batches at one seed.")
	fmt.Println()
	fmt.Println("| workload | counts compared | differing |")
	fmt.Println("|---|---:|---|")
	for _, wl := range []string{"heap-young", "heap-guardian"} {
		var rs [2]*runLine
		for i := range rs {
			r, err := child("-workload", wl, "-seed", "1", "-batches", "8", "-trace", "1")
			if err != nil {
				fmt.Println("FAILED:", err)
				return 1
			}
			rs[i] = r
		}
		var differ []string
		for _, name := range exactLayerMetrics {
			if rs[0].Metrics[name].Value != rs[1].Metrics[name].Value {
				differ = append(differ, name)
			}
		}
		fmt.Printf("| %s | %d | %s |\n", wl, len(exactLayerMetrics), strings.Join(differ, " "))
		bad += len(differ)
	}
	if bad > 0 {
		fmt.Printf("\n%d checks out of bound\n", bad)
		return 1
	}
	fmt.Println("\nall within bounds")
	return 0
}
