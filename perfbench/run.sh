#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload lenet-stream --seed 2020 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare base.txt head.txt
#
# The Go build cache and the binary live in .bench_build/ under the
# current directory, so nothing is written outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
