#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, temp files)
# goes under .bench_build/ in the current directory; the toolchain is kept
# offline and local so the build never reaches for a network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=readonly
export GOWORK=off

go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
