#!/usr/bin/env bash
# Builds the perfbench benchmark and runs it from the repository root,
# forwarding every argument:
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 20 --trace 0
#
# The perfbench binary, bccserve, the Go build cache and every run's
# temporary stores live under .bench_build/ in the repository root, so a
# run reads and writes nothing outside its checkout. The first run in a
# fresh checkout compiles the standard library into that cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
