#!/bin/sh
# Tier-1 verification: the gate every PR must keep green.
#
#   vet        — go vet (tests included) across the tree
#   build      — everything compiles
#   test       — the full test suite (includes TestLintTreeClean, core's
#                determinism table — TestExecWorkersDeterminism (Shards 0),
#                TestShardDeterminism (Shards {1,2,4}) and
#                TestExecWorkersDeterminismWithHistory, each x ExecWorkers
#                {1,2,8} x variants, pinned to recorded fingerprints, plus
#                TestShardZeroIsMonolithic — and every fuzz target's seed
#                corpus — `go test -run Fuzz ./internal/maze` runs the queue
#                oracle's alone; `-fuzz FuzzQueueOrder` explores beyond it)
#   race        — the race detector over every package that executes
#                 host-parallel: the par pool itself, core's determinism
#                 table (its three Determinism tests and the tracing-enabled
#                 TestExecWorkersDeterminismWithTracing, both at 1/2/8
#                 workers) AND its seeded chaos suite (every variant
#                 under fault injection at 1/2/8 workers), the taskflow
#                 executor, the concurrent obs recorders, sched + maze, which
#                 run under the pool from core's parallel sections, grid,
#                 whose cost-field values and dirty flags are written from
#                 concurrent rip-up windows, route and guide, whose sealed
#                 edge lists are read from every scan worker, fault, the
#                 containment layer whose counters are hit from every
#                 worker, pattern and patterngpu, whose per-worker solver
#                 scratch serves the kernel's solve fan-out
#                 (TestGPUResultsMatchCPU at 1/2/8 workers), and
#                 shard, whose plans and splits are read from every leaf
#                 slot (TestShardDeterminism drives the cut plan itself at
#                 1/2/8 workers under -race), the
#                 prom exposition renderer, opsrv, whose live-scrape
#                 test hammers /metrics, /healthz and /tracez from a
#                 scraper goroutine while a full 19test9m run routes,
#                 and serve, the fastgrd job pipeline whose overload
#                 test saturates admission, cancels mid-run jobs and
#                 drains while HTTP clients hammer the handlers
#   lint        — fastgrlint, the static invariant net (determinism +
#                 passive observability + recover-hygiene contracts, plus
#                 the interprocedural flow checks: walltaint, writeroute,
#                 shardisolation, promdrift), gofmt verification on
#   lint-self   — fastgrlint -self: the analyzer's own packages must be
#                 clean under the default policy and the fixture module
#                 must reproduce its golden file
#   bench-obs   — observability overhead guard: benchgen -obs fails if the
#                 disabled-mode cost on the pattern-stage batch workload
#                 exceeds 2%
#   bench-lint  — records analyzer cost (files/sec, per-check wall time)
#                 into BENCH_lint.json and fails if the full suite costs
#                 more than 2x the pre-flow-layer baseline
#   bench-maze  — maze kernel guard: benchgen -maze records ns and pushes
#                 per expansion for {dijkstra,astar} x {cold,warm} and
#                 fails if, on the warm cost field, an A* expansion costs
#                 more than 1.5 Dijkstra expansions (a within-run ratio,
#                 host-independent) or A* settles no fewer nodes
#   bench-fault — fault containment overhead guard: benchgen -fault fails
#                 if arming the layer with injection disabled costs more
#                 than 2% on the pattern or maze workloads
#   bench-shard — sharded routing guard: benchgen -shard sweeps sharded
#                 vs monolithic on the largest harness design and fails
#                 if the K=4 peak-heap delta exceeds half the monolithic
#                 one or quality drifts more than 10%
#   bench-serve — daemon overhead guard: benchgen -serve fails if routing
#                 a job through the fastgrd pipeline (journal, queue,
#                 guide artifact) costs more than 5% over direct
#                 core.Route; also records p50/p99 job latency at
#                 1/4/16 concurrent submitters
#   bench-regress — regression watchdog: benchgen -regress re-validates
#                 every BENCH_*.json just regenerated above against its
#                 own recorded gates and diffs the gated metrics against
#                 the committed HEAD baselines (refusing cross-host or
#                 cross-schema comparisons; drift only warns)
#
# Every step runs even after a failure, and the trailer prints one
# PASS/FAIL line per step so a red build is attributable at a glance.
set -u

fail=0
summary=""

step() {
    name=$1
    shift
    echo "==> $name: $*"
    if "$@"; then
        summary="$summary
$name: PASS"
    else
        summary="$summary
$name: FAIL"
        fail=1
    fi
}

step vet        go vet -tests=true ./...
step build      go build ./...
step test       go test ./...
step race       go test -race ./internal/par ./internal/core ./internal/taskflow ./internal/obs ./internal/obs/prom ./internal/obs/opsrv ./internal/sched ./internal/maze ./internal/grid ./internal/route ./internal/guide ./internal/fault ./internal/pattern ./internal/patterngpu ./internal/shard ./internal/serve
step lint       go run ./cmd/fastgrlint -fmt ./...
step lint-self  go run ./cmd/fastgrlint -self
step bench-obs  go run ./cmd/benchgen -obs -o BENCH_obs.json
step bench-lint go run ./cmd/benchgen -lint -o BENCH_lint.json
step bench-maze go run ./cmd/benchgen -maze -o BENCH_maze.json
step bench-fault go run ./cmd/benchgen -fault -o BENCH_fault.json
step bench-shard go run ./cmd/benchgen -shard -o BENCH_shard.json
step bench-serve go run ./cmd/benchgen -serve -o BENCH_serve.json
step bench-regress go run ./cmd/benchgen -regress

echo "== tier1 summary ==$summary"
exit $fail
