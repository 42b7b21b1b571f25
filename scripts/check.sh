#!/usr/bin/env bash
# Pre-PR gate: formatting, vet, build, full tests, and the race detector on
# the packages with parallel hot paths. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [[ -n "$fmt" ]]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...

# tensor.Add, tensor.AddRows, tensor.EltMax and tensor.EltMin have SSE2
# bodies on amd64 (add_amd64.s, addrows_amd64.s and eltmax_amd64.s, all
# checked by vet's asmdecl above) and pure-Go bodies everywhere else
# (kernels_other.go): cross-compile the fallbacks so they cannot rot on an
# amd64-only gate.
GOARCH=arm64 go vet ./internal/tensor
GOARCH=arm64 go build ./...
go test -race ./internal/tensor ./internal/gnn ./internal/experiments \
    ./internal/leakcheck

# The packages whose concurrency this repo's claims rest on get fresh
# (uncached) race runs of their whole test set, not a -run pattern: a
# pattern that matches nothing passes silently, so a renamed or folded test
# would drop out of the gate unnoticed. That covers the one write pipeline
# under concurrent conflicting writers and Close (server, over both
# backends); the one BSP round protocol — one engine call per shard per
# barrier stage, subscription-filtered delivery, ghost hydration,
# idle-shard skipping, the fail-stop latch — at 1, 2 and 4 shards against
# a standalone engine (shard); both grouping routes with the pool workers
# writing the shared grouper tables, the selector between them, and the
# round protocol's layer call against plain Apply (inkstream); and the
# trace rings, sampler, alert engine and black box (obs).
go test -race -count=1 ./internal/server ./internal/shard ./internal/inkstream \
    ./internal/obs

# The grouping tests pin the worker count to GOMAXPROCS (at least 2), so a
# -cpu sweep routes them across 4, 8 and 16 shards besides the sequential
# route, with the pool workers folding into the shared slot table and
# bitmap. A pattern that matched fewer tests than it names would shrink the
# gate silently, so the match is counted first.
routing='TestShardOwnership|TestGroupingSelector|TestShardedGroupingEquivalence|TestRecordRoutingMatchesDefinition'
matched=$(go test -list "^($routing)\$" ./internal/inkstream | grep -c '^Test' || true)
if (( matched < 4 )); then
    echo "check.sh: the grouping race pattern matches $matched tests, want 4" >&2
    exit 1
fi
go test -race -count=1 -cpu 1,2,4,8 -run "^($routing)\$" ./internal/inkstream

# The golden gate pins every value of the paper's count artifacts (Fig. 8,
# Table V, Fig. 1a/1b, memcost's modeled bytes) at tiny() and compares them
# exactly. Those values are pure functions of counts, so the gate must not
# depend on the host: it runs uncached at 1, 2 and 4 CPUs (the pool's worker
# count and scheduling change with each) and once under the race detector
# (≈20 s). The pattern is counted first, as above.
golden='TestCountArtifactsGolden'
matched=$(go test -list "^$golden\$" ./internal/experiments | grep -c '^Test' || true)
if (( matched != 1 )); then
    echo "check.sh: the golden pattern matches $matched tests, want 1" >&2
    exit 1
fi
go test -count=1 -cpu 1,2,4 -run "^$golden\$" ./internal/experiments
go test -race -count=1 -run "^$golden\$" ./internal/experiments

# Every Benchmark* left in the tree is cited by this script,
# scripts/obs_overhead.sh, README.md or DESIGN.md, so each runs one iteration
# here (≈15 s) and cannot rot unnoticed; the numbers of a single iteration
# mean nothing. BenchmarkApply's features/ rows (four hub feature rewrites on
# the dense profile) are the record-routing path at some hundred thousand
# arcs a batch; BenchmarkAdd, BenchmarkAddRows and BenchmarkEltMax
# (internal/tensor) time the fold, per-record fold and merge kernels against
# their portable loops at widths 32 and 256;
# BenchmarkRemoveEdge/{hub,leaf} (internal/graph) bounds the O(deg) scan a
# removal costs without an arc index, and BenchmarkLoad (internal/dataset)
# the one-pass bulk build of a loaded snapshot.
go test -run '^$' -bench . -benchtime 1x . ./internal/tensor ./internal/gnn \
    ./internal/inkstream ./internal/server ./internal/shard ./internal/graph \
    ./internal/dataset

# bench/ is its own module (not in ./... above) and imports internal/*:
# vet and test it here so an API change next to its probe fails this gate,
# not the next benchmark run.
(cd bench && go vet ./... && go test ./...)

# bench/'s own tests drive one shard only. One short traced 2-shard run
# (≈10 s, ≈30 s on a cold .bench_build) reads /v1/rounds and /v1/stats the
# way the benchmark does, so a renamed or moved field fails here instead of
# zeroing a shard metric.
shard_run=$(bash bench/run.sh --workload shard2-scatter --seed 1 --seconds 2 --trace 1)
if [[ $shard_run != *'"correct":true'* ]]; then
    echo "check.sh: traced shard2-scatter run is not correct" >&2
    exit 1
fi
for m in shard.cut_fraction shard.bsp_p50_us shard.records_per_round; do
    if ! awk -v key="\"$m\":{\"value\":" '
        { i = index($0, key); if (i) v = substr($0, i + length(key)) + 0 }
        END { exit !(v > 0) }' <<<"$shard_run"; then
        echo "check.sh: traced shard2-scatter run reports no $m > 0" >&2
        exit 1
    fi
done

# Observability must stay essentially free on the engine hot path and the
# full pipeline. The gate runs paired benchmarks and is sensitive to box
# load, so it is opt-in: CHECK_OBS=1 scripts/check.sh
if [[ "${CHECK_OBS:-0}" == "1" ]]; then
    scripts/obs_overhead.sh
else
    echo "check.sh: skipping obs overhead gate (set CHECK_OBS=1 to run)"
fi

echo "check.sh: all gates passed"
