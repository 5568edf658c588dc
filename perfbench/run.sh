#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one
# workload. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload paper-ranges --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, module cache, temp files,
# the binary) stays under .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
