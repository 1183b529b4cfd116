#!/usr/bin/env bash
# Builds the benchmark and overlayd from this checkout's sources, then runs
# one workload:
#
#   bash benchmark/run.sh --workload library|fleet|overlayd --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays in the checkout's
# .bench_build directory (Go build cache, binaries, digests, traces and the
# daemon's temporary files). Add --quick for the seconds-long test sizes.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
state="$root/.bench_build"
mkdir -p "$state/bin" "$state/tmp"

# The Go tool's cache, temporary files, module path and user configuration
# (telemetry included) all stay inside the checkout; nothing is downloaded.
export GOCACHE="$state/gocache" GOTMPDIR="$state/tmp" GOPATH="$state/gopath" XDG_CONFIG_HOME="$state/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

go build -C "$root/benchmark" -o "$state/bin/benchmark" .
go build -C "$root" -o "$state/bin/overlayd" ./cmd/overlayd

cd "$root"
exec "$state/bin/benchmark" -state "$state" -overlayd "$state/bin/overlayd" "$@"
