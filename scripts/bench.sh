#!/usr/bin/env bash
# bench.sh — run the benchmark suites with -benchmem and emit a
# machine-readable JSON snapshot (iterations, ns/op, B/op, allocs/op and
# any extra metrics such as MB/s or sim-cycles per benchmark).
#
# Usage:
#   scripts/bench.sh                      # all suites, snapshot to stdout
#   scripts/bench.sh -o BENCH.json        # write snapshot to a file
#   scripts/bench.sh -t 2s ./internal/nn  # custom -benchtime and packages
#
# Tracking a perf change over time is a two-snapshot diff. For a
# statistically sound comparison, use the end-to-end benchmark instead:
# alternate at least ten base and head runs of one workload, saving each
# side's standard output, then let it judge the pairs against the bounds
# in BENCHMARK.json (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload lenet-stream --seed 2020 --seconds 20 --trace 0 >> base.txt
#   ... the same on the changed tree, >> head.txt; repeat ...
#   bash perfbench/run.sh --compare base.txt head.txt
#
# Both the snapshot JSON and perfbench need only the stock toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

out=""
benchtime="1s"
while getopts "o:t:" opt; do
	case "$opt" in
	o) out="$OPTARG" ;;
	t) benchtime="$OPTARG" ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))

pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
	pkgs=(./internal/tensor/ ./internal/nn/ ./internal/core/ ./internal/accel/ ./internal/noc/)
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# The matmul-heavy suites depend on the runtime CPUID kernel dispatch;
# record the decision in the snapshot metadata so numbers from different
# machines compare. Output format:
#   kernel=<selected> available=<a,b,c>
kernel_line="$(go run ./cmd/nocsim -print-kernel)"
matmul_kernel="$(sed -n 's/^kernel=\([^ ]*\).*/\1/p' <<<"$kernel_line")"
matmul_kernels="$(sed -n 's/.* available=\([^ ]*\).*/\1/p' <<<"$kernel_line")"

go test -run '^$' -bench . -benchmem -benchtime "$benchtime" "${pkgs[@]}" | tee "$raw" >&2

json="$(awk -v benchtime="$benchtime" \
	-v matmul_kernel="$matmul_kernel" -v matmul_kernels="$matmul_kernels" '
function jesc(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return s }
function metkey(u) { gsub(/\//, "_per_", u); gsub(/[^A-Za-z0-9_]/, "_", u); return u }
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^pkg: /    { pkg = $2 }
/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	line = "      \"" jesc(name) "\": {\"iterations\": " $2
	for (i = 3; i + 1 <= NF; i += 2)
		line = line ", \"" metkey($(i + 1)) "\": " $i
	line = line "}"
	if (pkg in bodies) bodies[pkg] = bodies[pkg] ",\n" line
	else { bodies[pkg] = line; order[++npkg] = pkg }
}
END {
	printf "{\n"
	printf "  \"goos\": \"%s\",\n", jesc(goos)
	printf "  \"goarch\": \"%s\",\n", jesc(goarch)
	printf "  \"cpu\": \"%s\",\n", jesc(cpu)
	printf "  \"benchtime\": \"%s\",\n", jesc(benchtime)
	printf "  \"matmul_kernel\": \"%s\",\n", jesc(matmul_kernel)
	printf "  \"matmul_kernels_available\": \"%s\",\n", jesc(matmul_kernels)
	printf "  \"suites\": {\n"
	for (p = 1; p <= npkg; p++) {
		printf "    \"%s\": {\n%s\n    }", jesc(order[p]), bodies[order[p]]
		printf p < npkg ? ",\n" : "\n"
	}
	printf "  }\n}\n"
}' "$raw")"

if [ -n "$out" ]; then
	printf '%s\n' "$json" > "$out"
	echo "wrote $out" >&2
else
	printf '%s\n' "$json"
fi
