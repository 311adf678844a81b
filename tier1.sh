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
#                 host-parallel: taskflow, the one executor (its For and
#                 its task graphs), and par, whose For forwards to it;
#                 core's determinism table (its three Determinism tests
#                 and the tracing-enabled
#                 TestExecWorkersDeterminismWithTracing, both at 1/2/8
#                 workers, the latter also checking that every worker
#                 lane's spans nest, so no two goroutines draw on one
#                 lane), its seeded chaos suite (every variant under fault
#                 injection at 1/2/8 workers) AND
#                 TestCancelAtEveryCheckpoint's 4-worker cut row, where
#                 the coordinator polls the context while workers route;
#                 the concurrent obs recorders, sched + maze, which run on
#                 the executor from core's parallel sections — a rip-up
#                 pass's lanes search in one shared record frame, and
#                 maze's frame tests route disjoint windows on it from
#                 four goroutines at once — grid, whose
#                 wire cost values and line/cell dirty flags are written
#                 from concurrent rip-up windows of every leaf at once
#                 while via costs are read from the shared base-cost
#                 table at the demand those windows write, route
#                 and guide, whose sealed edge lists are read from every
#                 scan worker, fault, the containment layer whose counters
#                 are hit from every worker, pattern and patterngpu, whose
#                 per-worker solver scratch serves the kernel's solve
#                 fan-out (TestGPUResultsMatchCPU at 1/2/8 workers), and
#                 shard, whose plan is read from every worker of a leaf
#                 pass (TestShardDeterminism drives the cut plan itself at
#                 1/2/8 workers under -race), the prom exposition
#                 renderer, opsrv, whose live-scrape test hammers
#                 /metrics, /healthz and /tracez from a scraper goroutine
#                 while a full 19test9m run routes, and serve, the fastgrd
#                 job pipeline whose overload test saturates admission,
#                 cancels mid-run jobs and drains while HTTP clients
#                 hammer the handlers
#   fuzz-design, fuzz-guide — 10 s of coverage-guided fuzzing of each text
#                 reader (FuzzRead in internal/design and internal/guide)
#                 beyond its seed corpus: no panic, the design reader never
#                 accepts what its fmt reference rejects, and what either
#                 reader accepts round-trips byte-stably through its writer.
#                 -fuzzminimizetime 1s keeps the budget on exploration
#                 rather than on shrinking each new corpus entry
#   fuzz-stt    — 10 s of FuzzBuild in internal/stt, same flags: for any
#                 pin set the flat Steiner tree equals the reference
#                 builder's (ref_test.go) node for node, before and after
#                 edge shifting, and passes Validate
#   lint        — fastgrlint, the static invariant net (determinism +
#                 passive observability + recover-hygiene contracts, plus
#                 the three interprocedural flow checks: walltaint,
#                 writeroute, shardisolation), gofmt verification on
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
#   bench-shard — sharded routing guard: benchgen -shard runs the cut
#                 plan once against the one-leaf plan on the largest
#                 harness design and fails if the cut plan's peak-heap
#                 delta exceeds half the one-leaf one or its quality
#                 drifts more than 10%
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
step fuzz-design go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s -fuzzminimizetime 1s ./internal/design
step fuzz-guide go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s -fuzzminimizetime 1s ./internal/guide
step fuzz-stt   go test -run '^$' -fuzz '^FuzzBuild$' -fuzztime 10s -fuzzminimizetime 1s ./internal/stt
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
