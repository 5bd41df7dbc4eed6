#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash repobench/run.sh --workload ojsp-open --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, the binary, the mutable source's WAL
# and snapshots (removed when the run ends), and the traced run's spans.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false
go -C repobench build -o "$out/repobench" .
exec "$out/repobench" "$@"
