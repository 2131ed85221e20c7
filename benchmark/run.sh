#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the checkout
# root. Everything the build and an unnamed -out write (Go build cache, the
# binary, temp dirs) stays under .bench_build/ in the checkout. Usage: see
# main.go.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    GOFLAGS= GOENV=off GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/smacs-benchmark" .)
cd "$root"
exec "$build/smacs-benchmark" "$@"
