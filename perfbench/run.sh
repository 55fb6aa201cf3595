#!/usr/bin/env bash
# Builds the benchmark and the tomo daemon from the checkout this script
# sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, Go caches and traces go to $CARGO_TARGET_DIR (default
# .bench_build) under the current directory, so the run writes nothing
# outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(
	cd "$here"
	go build -o "$build/perfbench" .
	go build -o "$build/tomo" robusttomo/cmd/tomo
) >&2

exec "$build/perfbench" -tomo "$build/tomo" -trace-dir "$build/trace" "$@"
