#!/usr/bin/env bash
# Builds the benchmark binary from source if it is missing or stale, then
# replaces this shell with it: one OS process per workload run, no child
# left behind. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload search_cold --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache) stays inside the
# checkout, under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
bin="$build/csfltr-benchmark"
src="$root/benchmark"

if [ ! -f "$src/main.go" ]; then
	echo "benchmark/run.sh: run me from the root of a checkout" >&2
	exit 2
fi

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

stale() {
	[ ! -x "$bin" ] && return 0
	[ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]
}

if stale; then
	mkdir -p "$build"
	(cd "$src" && go build -o "$bin" .) >&2
fi

if [ -z "${BENCH_COMMIT:-}" ] && command -v git >/dev/null && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
	BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD)
	export BENCH_COMMIT
fi

exec "$bin" "$@"
