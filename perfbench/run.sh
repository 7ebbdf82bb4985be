#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload turntable-400 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the traced runs' span files stay under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
