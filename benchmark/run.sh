#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds flowbench (this directory) and
# flownetd (the working tree) with every Go cache and temp file inside the
# checkout, then runs the benchmark with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
# A directory without the flownet module (only BENCHMARK.json and this
# directory) fails here, before anything is printed on stdout.
(cd "$root/benchmark" && go build -o "$build/bin/flowbench" .) 1>&2
(cd "$root" && go build -o "$build/bin/flownetd" ./cmd/flownetd) 1>&2
cd "$root"
exec "$build/bin/flowbench" -flownetd "$build/bin/flownetd" "$@"
