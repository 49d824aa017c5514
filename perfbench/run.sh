#!/usr/bin/env bash
# Builds tempod and the benchmark from source into .bench_build/ (with the
# Go build cache kept there too), then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-small --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/tempod" ./cmd/tempod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -tempod "$out/tempod" -work "$out/work" "$@"
