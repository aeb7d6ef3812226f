#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it.
# Everything the Go toolchain writes (build cache, temporaries, the
# binary) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOWORK=off
go build -C "$root/bench" -o "$out/guardian-bench" .
cd "$root"
exec "$out/guardian-bench" "$@"
