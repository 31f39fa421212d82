#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload threshold-high --seed 1 --seconds 40 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, telemetry)
# stays under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/home"

(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" "$@"
