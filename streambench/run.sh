#!/usr/bin/env bash
# Builds the stream benchmark from source and runs it. Run from the
# repository root; every argument is passed on to the benchmark:
#
#   bash streambench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Build outputs (the Go build cache, the Go tool's configuration and
# telemetry files, and the binary) go to .bench_build in the current
# directory, so nothing is written outside it.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/streambench" .)
exec "$out/streambench" "$@"
