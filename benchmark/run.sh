#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark from source and runs it. Everything the build
# and the run write -- Go's build cache, its config and telemetry files,
# temp files, binaries, node data directories -- stays under .bench_build/
# in the working directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the repository root (no go.mod and benchmark/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
