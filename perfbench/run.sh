#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload sparse-ab --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and temporary files stay under
# .bench_build/ in the checkout (CARGO_TARGET_DIR names that directory
# when it is set), and the toolchain is never asked to download anything.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the program's sources are missing here" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" == /* ]] || out="$(pwd)/$out"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
