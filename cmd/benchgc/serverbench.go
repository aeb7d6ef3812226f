package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/server"
)

// benchgc -server-bench: the multi-session serving benchmark. It
// measures the scenario the guardian design exists for at scale —
// thousands of isolated guarded heaps behind one event loop:
//
//  1. Boot: register -server-sessions sessions (each a full heap +
//     Scheme machine + prelude boot) holding a guarded port and a guarded
//     external resource, and keep all of them registered at once.
//  2. Churn: -server-churn register/run/disconnect cycles on top of
//     the standing population, measuring sessions/sec and the
//     disconnect-to-reclaimed latency distribution (the time until the
//     guardian tconc path has closed every port and freed every
//     resource of the dropped session).
//  3. Shutdown: disconnect the standing population and drain it,
//     proving zero leaked descriptors and resources across the whole
//     run.
//
// The report is written as JSON (BENCH_server.json by default) and
// schema-checked before the process exits 0, so CI can gate on it.

type serverBootStats struct {
	Sessions       int     `json:"sessions"`
	Seconds        float64 `json:"seconds"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// PeakRegistered is sampled after boot: every booted session is
	// concurrently registered (the >= 10k standing-population claim).
	PeakRegistered int `json:"peak_registered"`
}

type serverChurnStats struct {
	Cycles         int     `json:"cycles"`
	Seconds        float64 `json:"seconds"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// ReclaimLatency is disconnect-to-fully-reclaimed wall time per
	// churned session: every guarded port closed and every external
	// resource freed through the guardian path (queueing included —
	// this is the latency a client of the serving system observes).
	ReclaimLatency benchQuantiles `json:"reclaim_latency"`
	// ReclaimCollections distributes the drain collections needed.
	ReclaimCollectionsP50 int `json:"reclaim_collections_p50"`
	ReclaimCollectionsMax int `json:"reclaim_collections_max"`
	LeakedPorts           int `json:"leaked_ports"`
	LeakedResources       int `json:"leaked_resources"`
}

type serverShutdownStats struct {
	Seconds         float64        `json:"seconds"`
	Reclaimed       int            `json:"reclaimed"`
	ReclaimLatency  benchQuantiles `json:"reclaim_latency"`
	LeakedPorts     int            `json:"leaked_ports"`
	LeakedResources int            `json:"leaked_resources"`
}

type serverBenchReport struct {
	Description string `json:"description"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Executors   int    `json:"executors"`
	GCWorkers   int    `json:"gc_workers"`
	// RequestsServed totals client requests evaluated across all
	// phases; MessagesPosted the inter-session wire messages.
	RequestsServed uint64              `json:"requests_served"`
	MessagesPosted uint64              `json:"messages_posted"`
	Boot           serverBootStats     `json:"boot"`
	Churn          serverChurnStats    `json:"churn"`
	Shutdown       serverShutdownStats `json:"shutdown"`
}

// sessionWorkload is what each benchmark session runs once at boot: it
// opens a guarded port, allocates a guarded resource, holds both in
// globals (so only disconnect can reclaim them), and builds a little
// list structure for allocation pressure.
const sessionWorkload = `
(begin
  (define port (open-session-port "bench.tmp"))
  (define res (session-alloc 0 64))
  (define data
    (let loop ((i 0) (acc '()))
      (if (< i 40) (loop (+ i 1) (cons i acc)) acc)))
  (length data))`

func runServerBench(w io.Writer, outPath string, sessions, churn int) error {
	nExec := runtime.GOMAXPROCS(0)
	if nExec > 4 {
		nExec = 4
	}
	cfg := server.Config{Executors: nExec, GCWorkers: 2}
	srv := server.New(cfg)
	srv.Start()
	defer srv.Close()

	rep := serverBenchReport{
		Description: "multi-session server: standing population boot, churn reclaim latency, full drain",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Executors:   srv.Config().Executors,
		GCWorkers:   srv.Config().GCWorkers,
	}

	// Phase 1: boot the standing population.
	fmt.Fprintf(w, "server-bench: booting %d sessions...\n", sessions)
	start := time.Now()
	ids := make([]server.SessionID, 0, sessions)
	for i := 0; i < sessions; i++ {
		id, err := srv.Register(sessionWorkload)
		if err != nil {
			return fmt.Errorf("boot register %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	if !srv.WaitIdle(10 * time.Minute) {
		return fmt.Errorf("boot did not quiesce")
	}
	bootSec := time.Since(start).Seconds()
	st := srv.Stats()
	rep.Boot = serverBootStats{
		Sessions:       sessions,
		Seconds:        bootSec,
		SessionsPerSec: float64(sessions) / bootSec,
		PeakRegistered: st.Live,
	}
	fmt.Fprintf(w, "server-bench: %d sessions live (%.0f sessions/sec boot)\n",
		st.Live, rep.Boot.SessionsPerSec)
	if st.Live != sessions {
		return fmt.Errorf("boot: %d live sessions, want %d", st.Live, sessions)
	}

	// Phase 2: churn on top of the standing population.
	fmt.Fprintf(w, "server-bench: churning %d register/run/disconnect cycles...\n", churn)
	start = time.Now()
	for i := 0; i < churn; i++ {
		id, err := srv.Register(sessionWorkload)
		if err != nil {
			return fmt.Errorf("churn register %d: %w", i, err)
		}
		if err := srv.Disconnect(id); err != nil {
			return fmt.Errorf("churn disconnect %d: %w", i, err)
		}
	}
	if !srv.WaitIdle(10 * time.Minute) {
		return fmt.Errorf("churn did not quiesce")
	}
	churnSec := time.Since(start).Seconds()

	recs := srv.ReclaimRecords()
	if len(recs) != churn {
		return fmt.Errorf("churn: %d reclaim records, want %d", len(recs), churn)
	}
	lat := make([]int64, 0, len(recs))
	colls := make([]int, 0, len(recs))
	leakP, leakR := 0, 0
	for _, r := range recs {
		lat = append(lat, int64(r.Latency))
		colls = append(colls, r.Collections)
		leakP += r.LeakedPorts
		leakR += r.LeakedResources
	}
	rep.Churn = serverChurnStats{
		Cycles:                churn,
		Seconds:               churnSec,
		SessionsPerSec:        float64(churn) / churnSec,
		ReclaimLatency:        quantilesOf(lat),
		ReclaimCollectionsP50: intQuantile(colls, 0.50),
		ReclaimCollectionsMax: intQuantile(colls, 1.0),
		LeakedPorts:           leakP,
		LeakedResources:       leakR,
	}
	fmt.Fprintf(w, "server-bench: churn %.0f sessions/sec, reclaim p50 %v p99 %v max %v\n",
		rep.Churn.SessionsPerSec,
		time.Duration(rep.Churn.ReclaimLatency.P50),
		time.Duration(rep.Churn.ReclaimLatency.P99),
		time.Duration(rep.Churn.ReclaimLatency.Max))

	// Phase 3: drain the standing population.
	fmt.Fprintf(w, "server-bench: draining the standing population...\n")
	start = time.Now()
	for _, id := range ids {
		if err := srv.Disconnect(id); err != nil {
			return fmt.Errorf("shutdown disconnect %d: %w", id, err)
		}
	}
	if !srv.WaitIdle(10 * time.Minute) {
		return fmt.Errorf("shutdown did not quiesce")
	}
	shutSec := time.Since(start).Seconds()

	all := srv.ReclaimRecords()[churn:]
	lat = lat[:0]
	leakP, leakR = 0, 0
	for _, r := range all {
		lat = append(lat, int64(r.Latency))
		leakP += r.LeakedPorts
		leakR += r.LeakedResources
	}
	rep.Shutdown = serverShutdownStats{
		Seconds:         shutSec,
		Reclaimed:       len(all),
		ReclaimLatency:  quantilesOf(lat),
		LeakedPorts:     leakP,
		LeakedResources: leakR,
	}
	final := srv.Stats()
	rep.RequestsServed = final.Requests
	rep.MessagesPosted = final.Messages
	if final.Live != 0 {
		return fmt.Errorf("shutdown: %d sessions still live", final.Live)
	}
	if final.LeakedPorts != 0 || final.LeakedRes != 0 {
		return fmt.Errorf("leaks across run: ports=%d resources=%d", final.LeakedPorts, final.LeakedRes)
	}
	fmt.Fprintf(w, "server-bench: drained %d sessions in %.1fs, zero leaks\n", len(all), shutSec)

	var fresh serverBenchReport
	return writeBenchReport(w, "server-bench", outPath, &rep, &fresh, func() error {
		return checkServerBench(&fresh, sessions, churn)
	})
}

// checkServerBench validates the re-read report's schema and headline
// invariants for writeBenchReport.
func checkServerBench(rep *serverBenchReport, sessions, churn int) error {
	switch {
	case rep.Boot.PeakRegistered != sessions:
		return fmt.Errorf("peak_registered = %d, want %d", rep.Boot.PeakRegistered, sessions)
	case rep.Boot.SessionsPerSec <= 0:
		return fmt.Errorf("boot sessions_per_sec = %v", rep.Boot.SessionsPerSec)
	case rep.Churn.Cycles != churn:
		return fmt.Errorf("churn cycles = %d, want %d", rep.Churn.Cycles, churn)
	case churn > 0 && rep.Churn.SessionsPerSec <= 0:
		return fmt.Errorf("churn sessions_per_sec = %v", rep.Churn.SessionsPerSec)
	case churn > 0 && rep.Churn.ReclaimLatency.P99 < rep.Churn.ReclaimLatency.P50:
		return fmt.Errorf("reclaim latency quantiles disordered: %+v", rep.Churn.ReclaimLatency)
	case rep.Churn.LeakedPorts != 0 || rep.Churn.LeakedResources != 0:
		return fmt.Errorf("churn leaks: %d/%d", rep.Churn.LeakedPorts, rep.Churn.LeakedResources)
	case rep.Shutdown.Reclaimed != sessions:
		return fmt.Errorf("shutdown reclaimed = %d, want %d", rep.Shutdown.Reclaimed, sessions)
	case rep.Shutdown.LeakedPorts != 0 || rep.Shutdown.LeakedResources != 0:
		return fmt.Errorf("shutdown leaks: %d/%d", rep.Shutdown.LeakedPorts, rep.Shutdown.LeakedResources)
	}
	return nil
}

// intQuantile returns the q-quantile of xs (nearest-rank), or 0 for
// empty input.
func intQuantile(xs []int, q float64) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
