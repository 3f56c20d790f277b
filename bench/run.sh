#!/usr/bin/env bash
# Builds the greenbench benchmark from the sources of the checkout it
# is started in and runs it with the given arguments. Start it from
# the repository root:
#
#   bash bench/run.sh --workload fleet-city --seed 42 --seconds 10 --trace 0
#
# The binary, Go's build cache and the traced runs' profiles all stay
# under .bench_build/ in the repository root.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp PPROF_TMPDIR=$build/tmp
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$(dirname "$0")" build -o "$build/greenbench" ./cmd/greenbench
exec "$build/greenbench" "$@"
