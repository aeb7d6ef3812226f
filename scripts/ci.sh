#!/bin/sh
# Repository CI gate: formatting, static checks, build, race-enabled
# tests, fuzz smokes, one run of each hot-path benchmark, and the
# benchmark module's own checks. Run from anywhere; operates on the
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
# Copy-on-write templates and the images that encode them run in the
# full -race pass above. Sibling clones running on two goroutines
# repeat five times here: a root visitor that stored into the shared
# symbol-table base is a data race there.
go test -race -count=5 -run 'TestAttachedMachinesRunConcurrently' ./internal/scheme/

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
go test -run '^$' -fuzz 'FuzzLoadMachineImage' -fuzztime=10s -fuzzminimizetime=1s ./internal/scheme/
go test -run '^$' -fuzz 'FuzzReader' -fuzztime=10s ./internal/scheme/
go test -run '^$' -fuzz 'FuzzDifferential' -fuzztime=10s ./internal/scheme/
go test -run '^$' -fuzz 'FuzzEval' -fuzztime=10s ./internal/scheme/
go test -run '^$' -fuzz 'FuzzServerSession' -fuzztime=10s ./internal/server/

echo "== hot-path benchmarks (compile and run once)"
# The local before/after for the allocation path and the copying core,
# an empty-nursery young collection with and without tracing
# (CollectGen0, CollectTraceOverhead), and the header accessors the VM
# calls per instruction (VectorRef, RecordRef, SymbolValue); one
# iteration each, so they cannot rot. Beside them those accessors are
# held to zero Go allocations a call.
go test -run '^$' -bench 'Cons|MakeVector64|CollectYoungList|CollectYoungLists|CollectYoungTree|CollectDirtyLists|CollectPromotedSlots|CollectLargeVectors|CollectScatteredList|CollectGen0|CollectTraceOverhead|BarrieredStore|VectorRef|RecordRef|SymbolValue' -benchtime 1x ./internal/heap/
# Guardian registration: one pair onto the generation-0 protected list.
go test -run '^$' -bench 'GuardianRegister' -benchtime 1x ./internal/core/
# What a template-booted session costs in Go: Attach (run with
# -benchmem for its bytes and allocations) and one serve-steady request.
go test -run '^$' -bench 'Attach|SessionRequest' -benchtime 1x ./internal/server/
# Symbol lookup on an attached machine: a template base name and a
# name in the machine's own overlay; a VM loop's heap words and Go
# allocations per iteration; and prelude procedures (map, fold-left)
# calling a user closure.
go test -run '^$' -bench 'InternAttached|VMLoop|PreludeMap' -benchtime 1x ./internal/scheme/
go test -run 'TestHeaderAccessorsDoNotAllocate' ./internal/heap/

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
