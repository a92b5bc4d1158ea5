#!/usr/bin/env bash
# Builds the interval benchmark from the source tree it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans all stay
# under .bench_build/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C "$here" build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
