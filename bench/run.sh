#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Everything the build
# leaves behind (binary, Go build cache, temp files) stays under .bench_build
# in the checkout this is started from.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/campaign-bench" .
exec "$out/campaign-bench" "$@"
