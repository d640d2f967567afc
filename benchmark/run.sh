#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes — the
# Go build cache, the binary, scratch data directories, result and trace
# files — stays inside the checkout: build products under .bench_build/ at
# the checkout root, results under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/spitz-benchmark" .
exec "$build/spitz-benchmark" "$@"
