#!/bin/sh
# verify.sh — the repository's full verification gate: build, vet, gofmt,
# the test suite, and the race-enabled suite (the parallel experiment engine
# makes the race run mandatory, not optional).
#
# Usage: ./verify.sh [-short]   (-short is forwarded to both test runs)
set -eu

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting (run gofmt -w):"
	echo "$unformatted"
	exit 1
fi

echo "== go test $* ./..."
go test -timeout 30m "$@" ./...

# The race run needs a raised per-package timeout: the detector's 5-20x
# slowdown puts internal/experiments past go test's default 10m on
# low-core machines.
echo "== go test -race $* ./..."
go test -race -timeout 60m "$@" ./...

echo "verify.sh: all checks passed"
