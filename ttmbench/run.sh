#!/usr/bin/env bash
# Builds the time-to-mosaic benchmark from source and runs it. Invoke it
# from the repository root:
#
#   bash ttmbench/run.sh --workload mosaic --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the generated plates stay under
# $CARGO_TARGET_DIR (default .bench_build) below the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd ttmbench && go build -o "$out/ttmbench" .)
exec "$out/ttmbench" -workdir "$out" "$@"
