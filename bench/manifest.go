package main

import (
	"encoding/json"
	"fmt"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the driver
// lets one run measure (it passes the value back as --seconds).
const runSeconds = 20

// workloadWhy is the one-line reason each workload is in the benchmark.
var workloadWhy = map[string]string{
	"serve-steady":  "512 standing sessions, zipfian requests: server dispatch and scheme evaluation do nearly all the work, boot, drain and the guardian path none; the control for changes to those",
	"serve-churn":   "whole session lifecycles beside 256 standing sessions: template cloning, the drain collection, guardian salvage and port/resource clean-up dominate",
	"heap-young":    "direct Heap API, no guardians or weak pairs: bump allocation, write barrier, remembered set and the copying core; the control for guardian changes",
	"heap-guardian": "the paper's workload: register, guarded table, FIFO of resources, drain with Get after each collection, beside 20 000 tenured registrations",
}

// manifest renders BENCHMARK.json from the tables in this package, so
// the file and the program cannot name different things (the test
// TestBenchmarkJSONIsTheManifest holds them together).
func manifest() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, name := range workloadOrder {
		doc.Workloads = append(doc.Workloads, wl{name, workloadWhy[name]})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprint("bench: manifest: ", err))
	}
	return string(out) + "\n"
}
