#!/usr/bin/env bash
# Builds the benchmark and runs it at the root of the checkout (file
# arguments are relative to it), keeping every build output, Go build cache
# included, inside the checkout's .bench_build/.
#
#   bash bench/run.sh --workload single-max --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh suite --seed 1 --out result.json
#   bash bench/run.sh compare A.json B.json
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local

cd "$root"
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
