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
# (kernels_other.go): cross-compile the fallbacks for arm64 so they cannot
# rot on an amd64-only gate, and run them as 386, which an amd64 host
# executes, through the tensor tests and the engine tests that fold with
# them (AddRows' marking included) (≈12 s).
GOARCH=arm64 go vet ./internal/tensor
GOARCH=arm64 go build ./...
GOARCH=386 go test ./internal/tensor ./internal/inkstream
go test -race ./internal/tensor ./internal/gnn ./internal/experiments \
    ./internal/leakcheck

# The packages whose concurrency this repo's claims rest on get fresh
# (uncached) race runs of their whole test set, not a -run pattern: a
# pattern that matches nothing passes silently, so a renamed or folded test
# would drop out of the gate unnoticed. That covers the one write pipeline
# under concurrent conflicting writers and Close (server, over both
# backends); the one BSP round protocol — per-shard validation of every
# sub-batch before any shard applies, one engine call per shard per
# barrier stage, subscription-filtered delivery, ghost hydration,
# idle-shard skipping, the fail-stop latch — at 1, 2, 3 and 4 shards
# against a standalone engine (shard); the one-pass routes of both
# aggregator kinds feeding processRange's pooled chunks, and the round
# protocol's layer call against plain Apply (inkstream); and the
# trace rings, sampler, alert engine and black box (obs).
go test -race -count=1 ./internal/server ./internal/shard ./internal/inkstream \
    ./internal/obs

# There is no writer goroutine: the caller that finds nobody writing
# journals, applies, publishes and acknowledges on its own goroutine, and a
# writer's turn ends with its own group. Which caller writes depends on the
# scheduler, so the two writer tests (over both backends) run under the race
# detector at one and at four CPUs. The pattern is counted first, as for the
# grouping and golden gates below.
writer='TestWriterIsTheCaller|TestWriterGroupCommitHandOff'
matched=$(go test -list "^($writer)\$" ./internal/server | grep -c '^Test' || true)
if (( matched != 2 )); then
    echo "check.sh: the writer pattern matches $matched tests, want 2" >&2
    exit 1
fi
go test -race -count=1 -cpu 1,4 -run "^($writer)\$" ./internal/server

# A published snapshot shares its untouched groups and blocks with the
# snapshots after it, and readers hold it with no lock while the writer
# publishes. The two tests that read held snapshots across later publishes
# (in the engine, and through the server's readers during an update stream)
# run under the race detector at one and at four CPUs; each pattern must
# match exactly one test.
for gate in 'TestSnapshotHeldAcrossPublishes ./internal/inkstream' \
    'TestSnapshotEpochConsistencyRace ./internal/server'; do
    read -r name pkg <<<"$gate"
    matched=$(go test -list "^$name\$" "$pkg" | grep -c '^Test' || true)
    if (( matched != 1 )); then
        echo "check.sh: the pattern $name matches $matched tests in $pkg, want 1" >&2
        exit 1
    fi
    go test -race -count=1 -cpu 1,4 -run "^$name\$" "$pkg"
done

# Grouping runs on the calling goroutine; what the worker pool shares is
# processRange, whose chunks read the layer's groups and their slab rows and
# write the state rows of their own targets. The grouping tests that apply
# whole batches run at GOMAXPROCS workers (record routing at no fewer than
# two, at three chunk minimums), so a -cpu sweep under the race detector
# changes how each layer's targets split into chunks while every result
# stays held to its definition: record routing against the brute-force fold
# for every model and kind, the dense slab zero between epochs around max
# layers, groups in bitmap order before and after AddNode, and the per-chunk
# tallies (pinned at two workers, so there the sweep
# changes only how the chunks are scheduled). On a dense graph the chunks
# also write the column copy of their targets' messages into arrays shared
# by the whole layer, which must equal the rows after every kind of batch.
# A pattern that matched fewer tests than it names would shrink the gate
# silently, so the match is counted first.
routing='TestRecordRoutingMatchesDefinition|TestDenseSlabZeroAfterApply|TestGroupOrderFromBitmap|TestPooledCountsMatchSequential|TestMessageColumnsMatchRows'
matched=$(go test -list "^($routing)\$" ./internal/inkstream | grep -c '^Test' || true)
if (( matched < 5 )); then
    echo "check.sh: the grouping race pattern matches $matched tests, want 5" >&2
    exit 1
fi
go test -race -count=1 -cpu 1,2,4,8 -run "^($routing)\$" ./internal/inkstream

# The golden gate pins every value of the paper's count artifacts (Fig. 8,
# Table V, Fig. 1a/1b, memcost's modeled bytes, and Fig. 4's recomputes and
# bytes fetched grouped vs ungrouped) at tiny() and compares them
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
# their portable loops at widths 32 and 256, BenchmarkAddRows/hub also over
# a hub's 1 024 scattered rows, where a per-row reload of the payload shows;
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
