#!/usr/bin/env bash
# Builds the ladder benchmark from source and runs it with the given flags.
# Run from the root of a checkout:
#
#   bash ladder/run.sh --workload solo --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the traced run's spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/ladder" && go build -o "$out/ladder" .)
exec "$out/ladder" "$@"
