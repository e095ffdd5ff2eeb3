#!/usr/bin/env bash
# Builds the user-path benchmark from source and runs it; every argument
# passes through (see bench/README.md). Run it from the repository root:
#
#   bash bench/run.sh --workload flood64 --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the go command's configuration and telemetry,
# temporary files and the binary stay in .bench_build/ at the root, so
# a run writes nothing outside the checkout. The benchmark itself runs
# from bench/, where its workload specs live and its trace output
# (bench/out/) goes.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp" GOTOOLCHAIN=local

go -C "$root/bench" build -o "$build/moongen-bench" .
cd "$root/bench"
exec "$build/moongen-bench" "$@"
