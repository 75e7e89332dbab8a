#!/usr/bin/env bash
# Builds vsmoothd and the benchmark program from the sources of this
# checkout, then runs one benchmark pass. Run it from the repository root:
#
#   bash vsbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache and scratch store lives under
# .bench_build/ in the checkout.
set -euo pipefail

build=$(pwd)/.bench_build
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -o "$build/bin/vsmoothd" ./cmd/vsmoothd
(cd vsbench && go build -o "$build/bin/vsbench" .)
exec "$build/bin/vsbench" -build "$build" "$@"
