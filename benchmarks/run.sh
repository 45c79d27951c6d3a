#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmarks/run.sh --workload net-put-r3 --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays inside the checkout, in
# .bench_build/ (named in .gitignore): the binary, Go's build and module
# caches, the ring's data directories and the span files. Run it from
# the root of the checkout; it exits non-zero without printing a result
# when the repository's packages are not there to build against.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/chordbench" .)
exec "$out/chordbench" "$@"
