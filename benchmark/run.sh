#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through (see benchmark/README.md). Run it from the repository
# root. The binary, the Go build cache and traced runs' output all stay
# under .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail

out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
go -C benchmark build -o "$out/benchmark" . >&2
exec "$out/benchmark" "$@"
