#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the corpora and the
# sockets. The first build in a checkout compiles the standard library
# into that cache and takes a minute or two; later ones take a second.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$build/edgebench" .)

# The run works under a path relative to the checkout root, so that the
# unix socket of fleet_ship fits a socket address however deep the
# checkout sits.
cd "$root"
exec "$build/edgebench" -workdir .bench_build/work "$@"
