#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, engine directories, span
# logs) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -buildvcs=false -o "$out/perfbench" .

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -out "$out" -commit "$commit" "$@"
