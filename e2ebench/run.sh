#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark:
#
#   bash e2ebench/run.sh --workload far-join --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory. Without the repository around
# this directory the build fails and the script exits non-zero.
set -euo pipefail
out="$(pwd)/.bench_build"
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -workdir "$out" "$@"
