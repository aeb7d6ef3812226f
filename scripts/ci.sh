#!/bin/sh
# Repository CI gate: formatting, static checks, build, race-enabled
# tests, and a benchgc smoke run. Run from anywhere; operates on the
# repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== guardian gate (-race)"
# The guardian salvage fixpoint must append to tconcs in registration
# order: the chain suite pins §4's rounds and salvage order, and the
# workload suite replays a randomized guardian/weak workload twice and
# checks every collection's queue contents: identical across the runs,
# append-only, no object salvaged twice.
go test -race -run 'TestGuardian' ./internal/heap/

echo "== policy / autotune gate (-race)"
# The Config.Policy seam: the AutoTune gate runs a trigger-driven
# churn workload with a full Verify after every collection plus the
# adaptive-autotune stress configuration, and the steady-state test
# holds the feedback path to zero Go allocations per collection.
go test -race -run 'TestAdaptive|TestAutoTune|TestCollectSteadyStateAllocsAutoTune|TestStressAllConfigurations/adaptive-autotune' ./internal/heap/

echo "== multi-session server gate (-race)"
# The session server: 10k register/run/disconnect cycles from 4 client
# goroutines against the started pools (every session must reclaim
# through the guardian path with zero leaked descriptors/resources),
# plus the reclaim-order suite replaying a fixed schedule twice, and
# the session-memory suite: every template segment still shared after two
# radix cycles, memory per standing session flat in requests served, a
# drain that reaches what a program tenured by hand, and a thousand
# requests' compiled code reclaimed by the session's collector.
SERVER_CHURN_CYCLES=10000 go test -race -run 'TestSessionChurnStress|TestServerReclaimOrder|TestAsyncServerSmoke|TestSessionsKeepSharingTemplate|TestSessionMemoryFlatInRequests|TestDrainReachesProgramTenuredResources|TestCompiledCodeIsCollected' ./internal/server/

echo "== heap template / fork gate (-race)"
# Copy-on-write heap templates: the clone matrix (remset + guardians
# round-tripped with bit-for-bit salvage order), the COW
# fault/privatization semantics, the mid-collection
# SaveImage/CaptureTemplate rejection, the corrupt-image
# regression sweep, and the server-side template boot suite (staleness
# rebuild on donor DefinePrim, template-boot churn with zero leaks, no
# root inherited from the donor). With them what keeps a clone sharing:
# the StaticTop lockstep against a heap one generation shorter, clones
# churning under a static template generation (TestClone...), and the
# clone family's segment pool — zeroed, never aliased, bounded, two
# tables on two goroutines. On the machine side: clones sharing the
# template's symbol-table base and never writing it (TestAttach...,
# flattening on a collection that moves a base value, Attach's
# allocation count), and machine images keeping the permanent-symbol
# snapshots. Templates and images carry compiled closures, whose code
# is heap data (TestMachineTemplateCarriesCompiledCode,
# TestMachineImageCarriesCompiledCode). Primitives are immediates that
# clones and images carry like fixnums, and a host primitive replayed
# on a clone takes DefinePrim's fast path
# (TestPrimitiveValuesAcrossTemplateAndImage); a heap that never
# records a cell has no remembered-set shards and still saves and
# captures (TestLazyRemSetAndBorrowedScratch). Sibling clones running on two goroutines repeat five
# times: a root visitor that stored into the shared base is a data
# race there.
go test -race -run 'TestTemplate|TestClone|TestStaticTop|TestPool|TestSaveAndCaptureDuringCollection|TestLoadImage|TestMachineTemplate|TestMachineImage|TestAttach|TestPreludeBoot|TestPrimitiveValuesAcrossTemplateAndImage|TestLazyRemSetAndBorrowedScratch' ./internal/heap/ ./internal/scheme/ ./internal/server/ ./internal/seg/
go test -race -count=5 -run 'TestAttachedMachinesRunConcurrently' ./internal/scheme/

echo "== segment-window gate (-race)"
# Word access by window: cursors that cache their open segment, objects
# at the one-segment limit either side of the window/run boundary,
# forward privatizing a template-shared from-space segment without
# touching the template, and Verify's stale-cursor invariant. The
# steady-state test holds the window-filling constructors and the
# copying core to zero Go allocations per round. The kleene-sweep's
# scan of to-space: a handed-over segment swept from its cursor on, one
# wave across the pair, weak and obj spaces and a large object, and the
# tconc pairs a guardian salvage appends, each at exact counts.
go test -race -run 'TestWindow|TestCloneForwardLeavesTemplateIntact|TestVerifyCatchesStaleCursor|TestCollectSteadyStateAllocs|TestScanStartsAtHandedOverCursor|TestSweepWaveSpansSpaces|TestSweepCellsGuardianSalvage' ./internal/heap/

echo "== heap repeat gate (-count=2 -race)"
# Runs the heap suite twice in one process: shakes out state leaking
# between runs (package-level caches, sticky remembered-set entries,
# root-slot reuse) that a single pass cannot see.
go test -count=2 -race ./internal/heap/...

echo "== fuzz smoke"
# Short coverage-guided runs of each fuzz target (go test -fuzz takes
# one target per invocation); regressions found by longer offline
# fuzzing land in testdata/ and then run as plain tests in the -race
# pass above.
go test -run '^$' -fuzz 'FuzzRememberedSet' -fuzztime=10s ./internal/heap/
go test -run '^$' -fuzz '^FuzzGuardian$' -fuzztime=10s ./internal/heap/
# -fuzzminimizetime: new interesting inputs otherwise get the default
# 60s minimization budget each, which dwarfs the 10s fuzz budget.
go test -run '^$' -fuzz 'FuzzMutatorOps' -fuzztime=10s -fuzzminimizetime=1s ./internal/heap/
go test -run '^$' -fuzz 'FuzzLoadImage' -fuzztime=10s ./internal/heap/
go test -run '^$' -fuzz 'FuzzReader' -fuzztime=10s ./internal/scheme/
go test -run '^$' -fuzz 'FuzzDifferential' -fuzztime=10s ./internal/scheme/
go test -run '^$' -fuzz 'FuzzEval' -fuzztime=10s ./internal/scheme/
go test -run '^$' -fuzz 'FuzzServerSession' -fuzztime=10s ./internal/server/

echo "== hot-path benchmarks (compile and run once)"
# The local before/after for the allocation path and the copying core;
# one iteration each, so they cannot rot; and the header accessors the
# VM calls per instruction (VectorRef, RecordRef, SymbolValue). Beside
# them those accessors are held to zero Go allocations a call.
go test -run '^$' -bench 'Cons|MakeVector64|CollectYoungList|CollectYoungLists|BarrieredStore|VectorRef|RecordRef|SymbolValue' -benchtime 1x ./internal/heap/
# What a template-booted session costs in Go: Attach (run with
# -benchmem for its bytes and allocations) and one serve-steady request.
go test -run '^$' -bench 'Attach|SessionRequest' -benchtime 1x ./internal/server/
# Symbol lookup on an attached machine: a template base name and a
# name in the machine's own overlay; a VM loop's heap words and Go
# allocations per iteration; and prelude procedures (map, fold-left)
# calling a user closure.
go test -run '^$' -bench 'InternAttached|VMLoop|PreludeMap' -benchtime 1x ./internal/scheme/
go test -run 'TestHeaderAccessorsDoNotAllocate' ./internal/heap/

echo "== benchgc smoke"
go run ./cmd/benchgc -trace -phases -gcs 5 >/dev/null
go run ./cmd/benchgc -e e1 >/dev/null
# Reduced-scale server bench: exercises all three phases and the
# report's schema self-check (peak population, quantile ordering,
# zero leaks) without the full 10k boot.
go run ./cmd/benchgc -server-bench -server-sessions 200 -server-churn 50 \
    -out /tmp/BENCH_server_ci.json >/dev/null
rm -f /tmp/BENCH_server_ci.json
# Reduced-scale fork bench: template-vs-prelude boot, COW fault cost,
# and template churn, with the report's schema self-check (boot
# counters exact, speedup floor, quantile ordering, zero leaks).
go run ./cmd/benchgc -fork-bench -fork-sessions 300 \
    -out /tmp/BENCH_fork_ci.json >/dev/null
rm -f /tmp/BENCH_fork_ci.json
# Reduced-scale tune bench: the tuned-vs-fixed ablation at toy scale.
# The report is written and schema-checked; the comparative acceptance
# bounds (AutoTune never regressing a workload) are asserted only at
# full scale, so this smoke stays noise-proof.
go run ./cmd/benchgc -tune-bench -tune-reps 1 -tune-ops 60000 \
    -out /tmp/BENCH_tune_ci.json >/dev/null
rm -f /tmp/BENCH_tune_ci.json

echo "== benchmark module (bench/)"
# bench/ is its own module, so nothing above builds it: an internal/*
# API change that breaks the benchmark would otherwise first be
# noticed by whoever runs it next. Vet and test it, then run the two
# direct-heap workloads for two seconds each through the real entry
# point and require that no operation failed.
go vet -C bench ./...
go test -C bench ./...
for wl in heap-young heap-guardian; do
    bash bench/run.sh --workload "$wl" --seed 1 --seconds 2 --trace 0 | tail -n 1 | grep -q '"failed":0'
done

echo "CI OK"
