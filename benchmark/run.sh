#!/usr/bin/env bash
# Builds the genima benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload ladder --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every other file the toolchain writes stay under .bench_build/ in the
# current directory, and the toolchain never goes to the network.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$src" build -o "$out/genima-benchmark" .
exec "$out/genima-benchmark" "$@"
