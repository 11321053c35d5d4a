#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload gate-zipf --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare -base <dir> -head <dir>
#   bash bench/run.sh ab -base <rev> -pairs 10
#
# The working directory becomes the checkout root, and every build and run
# artefact stays inside it: the Go build cache and binary under
# .bench_build/, run outputs under .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off GOWORK=off GOFLAGS=
go -C bench build -o "$build/bench" . >&2
exec "$build/bench" "$@"
