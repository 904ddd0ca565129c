#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source and run it,
# reading and writing only inside the checkout. Called from the checkout's
# root as `bash bench/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`; every argument goes to the program unchanged.
#
# The Go build cache and temporary directory are moved under .bench_build/
# so that nothing is written outside the checkout; the first build in a
# fresh checkout therefore compiles the standard library too. A person
# working in the repository can simply `go run ./bench`.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local

# Fails here, before any result is printed, where there is no module to
# build (a directory holding only BENCHMARK.json and bench/).
go build -o "$build/bench" ./bench

exec "$build/bench" "$@"
