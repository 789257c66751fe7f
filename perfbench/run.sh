#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hybrid-samo-local --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/. Each
# run gets its own empty GEMM autotuner and sparse crossover tables, so no
# run inherits tuning decisions from the user's cache or an earlier run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

run=$(mktemp -d "$out/run.XXXXXX")
trap 'rm -rf "$run"' EXIT
status=0
SAMO_GEMM_TUNE="$run/gemm_tune.json" SAMO_SPARSE_XOVER_TABLE="$run/sparse_xover.json" TMPDIR="$run" \
	"$out/perfbench" "$@" || status=$?
exit "$status"
