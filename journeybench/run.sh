#!/usr/bin/env bash
# Builds the journey benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash journeybench/run.sh --workload tour --seed 1 --seconds 20 --trace 0
# Build outputs (binary, Go build cache) go under $CARGO_TARGET_DIR,
# default .bench_build, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/journeybench" build -o "$out/journeybench" .
exec "$out/journeybench" "$@"
