#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload retrain_lenet_ste --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache and the binary live
# in .bench_build/ under the current directory, so nothing is written
# outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
