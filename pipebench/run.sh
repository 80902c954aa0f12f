#!/usr/bin/env bash
# Builds the pipebench benchmark from source into .bench_build/ under the
# current directory (the repository root) and runs it with the given
# arguments, e.g.
#
#   bash pipebench/run.sh --workload stream-paced --seed 1 --seconds 15 --trace 0
#
# Every file the toolchain and the benchmark write stays under
# .bench_build/. Outside a repository checkout the build fails, and so
# does this script.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$src" && go build -trimpath -o "$build/pipebench" .)
exec "$build/pipebench" "$@"
