#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload pr-lj --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the compiler's scratch files and the binary live in
# .bench_build/ at the root, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
