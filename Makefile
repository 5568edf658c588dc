# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the two in sync.

GO ?= go

.PHONY: all build test vet ssrvet race crash replication fuzz-smoke perfbench-smoke bench-json bench-shards bench-drift bench-plan bench-screen bench-replica check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Stock go vet plus the repo's own analyzer suite — one target, so "it
# vets" always means both.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/ssrvet ./...

# The repo-specific analyzer suite alone: determinism (seededrand,
# maprange), float-comparison, dropped-error, lock-aliasing
# (guardedescape), lock-order, atomic-discipline, and goroutine-lifecycle
# invariants. Exits non-zero on findings.
ssrvet:
	$(GO) run ./cmd/ssrvet ./...

# The concurrency suites under the race detector (the mixed read/write
# stress tests in internal/core, internal/engine, and the public shard
# and planner layers only mean something with -race on). CI runs the full tree; this
# is the fast local loop.
race:
	$(GO) test -race ./internal/core/ ./internal/engine/ ./internal/server/ ./internal/wal/ ./internal/recovery/ ./internal/tuner/
	$(GO) test -race -run 'TestShardedMixedStress|TestManualRetune|TestAutoTune|TestPlannerConcurrentStress' .

# The durability stack: WAL torn-tail/bit-flip sweeps, chained-checkpoint
# recovery, and the crash-injection harness — all under -race.
crash:
	$(GO) test -race ./internal/wal/ ./internal/recovery/
	$(GO) test -race -run 'Durable|CrashInjection|Sharded' .

# The replication suite under the race detector: wire-codec corruption
# sweeps, live follower mirroring (incl. stream cuts at swept byte
# offsets and a local-WAL truncation sweep at EVERY offset), rotation
# lockstep, retune-triggered resyncs, the hedged router, and the
# two-process SIGKILL crash/resume harness — each ending in a Save-byte
# equality check against the primary.
replication:
	$(GO) test -race ./internal/replica/

# A bounded run of every fuzz target; regressions in the corpus fail fast.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/storage/ -run '^$$' -fuzz FuzzSetEncoding -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/ -run '^$$' -fuzz FuzzDecodeCorrupt -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hashtable/ -run '^$$' -fuzz FuzzTableOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ecc/ -run '^$$' -fuzz FuzzHadamardRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/minhash/ -run '^$$' -fuzz FuzzPackedSignatureRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/replica/ -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzLoad -fuzztime $(FUZZTIME)

# A short run of the repository benchmark (BENCHMARK.json) on each of its
# workloads, with per-layer tracing off and on. perfbench/ is its own Go
# module, so `go build ./...` never compiles it; this target does, through
# perfbench/run.sh. The benchmark re-checks every answer and exits 1 on a
# wrong one, so any failure here is a build break or a wrong answer.
perfbench-smoke:
	for w in paper-ranges narrow-sharded; do \
		for t in 0 1; do \
			bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace $$t || exit 1; \
		done; \
	done

# The parallel-pipeline benchmark report (build speedup, batched query
# latency, recall, simulated I/O, screening saving) as one JSON document.
# Tune scale with BENCH_N / BENCH_QUERIES / BENCH_BUDGET; the defaults are
# the laptop-scale Figure 6 configuration.
BENCH_N ?= 2000
BENCH_QUERIES ?= 256
BENCH_BUDGET ?= 500
bench-json:
	$(GO) run ./cmd/ssrbench -json -n $(BENCH_N) -queries $(BENCH_QUERIES) -budget $(BENCH_BUDGET) -out BENCH_parallel.json

# The sharded-engine report: build wall time, query percentiles, and
# concurrent durable insert throughput (write-only and mixed read/write)
# at shard counts 1/4/8, with a cross-shard-count answer checksum. Runs
# against the repo directory, not $TMPDIR — the fsync-overlap measurement
# needs a real disk. Takes a couple of minutes.
bench-shards:
	$(GO) run ./cmd/ssrbench -exp shards -json -out BENCH_shards.json

# The adaptive re-tuning report: recall/precision/candidate volume before
# drift, after a distribution-shifting insert stream on the stale plan,
# and after the drift-triggered retune — one query workload shared by the
# last two phases so the rows differ only in the plan that served them.
bench-drift:
	$(GO) run ./cmd/ssrbench -exp drift -json -n $(BENCH_N) -queries $(BENCH_QUERIES) -out BENCH_drift.json

# The query-planner report: repeat-query result-cache speedup and hit
# rate, wide-range screen-only vs fi-probe (with measured recall), and
# tiny-collection direct-scan vs fi-probe — plus checksums proving every
# exact plan answers byte-identically to the default pipeline
# (identicalResults in the JSON).
bench-plan:
	$(GO) run ./cmd/ssrbench -exp plan -json -out BENCH_plan.json

# The signing-family screening matrix: {classic, superminhash} ×
# b ∈ {64, 4, 1} over one collection and workload — screened fraction,
# signature bytes/set, estimator half-width, and a cross-family checksum
# proving exact answers are byte-identical for every family
# (identicalResults in the JSON).
bench-screen:
	$(GO) run ./cmd/ssrbench -exp screen -json -n $(BENCH_N) -queries $(BENCH_QUERIES) -budget $(BENCH_BUDGET) -out BENCH_screen.json

# The replication report: write-to-visible lag percentiles on a live
# follower, hedged scatter-gather read latency through the router vs
# direct primary reads, and a byte-identity check over every routed
# answer (identicalAnswers in the JSON).
bench-replica:
	$(GO) run ./cmd/ssrbench -exp replica -json -n $(BENCH_N) -queries $(BENCH_QUERIES) -out BENCH_replica.json

check: build vet test
