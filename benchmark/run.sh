#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout: bash benchmark/run.sh --workload ...
# The binary and Go's build cache live in .bench_build/ at that root, so the
# benchmark reads and writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -C "$here" -o "$build/pgti-benchmark" .
# One P unless the caller says otherwise: on the shared 2-vCPU sandbox the
# second vCPU comes and goes with the neighbours, which moves a 2-P run's
# wall time by 30 % between one quarter of an hour and the next, while a 1-P
# run holds to a few percent (see README.md, "Steadiness").
export GOMAXPROCS="${GOMAXPROCS:-1}"
exec "$build/pgti-benchmark" "$@"
