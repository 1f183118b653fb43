#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments go to the
# benchmark (see bench/README.md). Run from the root of a checkout:
#
#   bash bench/run.sh --workload serve.lookup --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go's build and module caches, temporary
# files, the binary) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

(
  cd "$root/bench"
  export HOME="$build/home" GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" \
    TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
  # bench/ is its own module, so the root's `go test ./...` never sees its
  # unit tests (percentiles, self time, counting FS, determinism): the first
  # build in a checkout runs them, and a failure fails the benchmark
  if [ ! -x "$build/srdfbench" ]; then
    go vet .
    go test -count=1 .
  fi
  go build -o "$build/srdfbench" .
) >&2

exec "$build/srdfbench" "$@"
