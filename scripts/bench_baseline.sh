#!/bin/sh
# bench_baseline.sh — run the state/codec/executor/persist
# microbenchmarks and record the numbers as JSON (BENCH_state.json by
# default), establishing the perf trajectory future PRs are measured
# against. The executor package includes
# BenchmarkExecutorPipelined/depth={1,4}, the cross-block pipelining vs
# per-block barrier comparison; the depth=4 row is expected to stay well
# ahead of depth=1 (>=1.3x tx/s). (The BenchmarkOrdererStreaming rows an
# older JSON file may hold measured the deleted segment-streaming path;
# a new run no longer produces them.)
# BenchmarkExecutorDurable/depth={1,4}/{mem,wal} records the durability
# subsystem's cost on the finalize hot path: the wal rows' fsyncs/block
# metric shows the group-commit amortization (1.0 at the per-block
# barrier, ~1/depth when pipelined blocks finalize as one batch), and
# the mem-vs-wal tx/s gap is the price of crash durability.
# BenchmarkExecutorSpeculation/tau={1,2} is the delayed-vote harness:
# the tau=2 row overlaps execution with the slow tau-quorum wait, tau=1
# is the same chain with no wait (spec-hits/block 0); spec-misses/block
# stays 0 on both.
# BenchmarkSnapshotWrite records the snapshot writer on a ~64k-record
# store (the serial/parallel-N rows of older snapshots are from a
# shard-parallel writer that no longer exists).
# BenchmarkOrdererDurable/{mem,wal-group} records the orderer log's cost
# on the block cut path: the mem row is the in-memory baseline, the wal
# row adds cut-state durability. Its fsyncs/block is expected to stay
# ~1.0 (entry records ride the group commit; only the cut record forces
# the fsync), and its tx/s gap to mem is the price of orderer crash
# durability.
# BenchmarkTelemetryOverhead/{off,on} is the observability contract: the
# off row (nil tracer, no registry — the default configuration) must
# stay within noise of the plain pipeline rows across runs, and the on
# row reports the per-stage p50 latency breakdown (stage_*_p50_ns
# metrics) that the runs trajectory below accumulates.
# BenchmarkExecutorDispatch/{chained,skewed} measures the dependents-first
# ready queue: on the skewed (hot-chain + independent-tail) workload its
# tx/s is expected to stay >= 1.2x the ~4.0k tx/s that discovery-order
# dispatch reached there (the chain stays off the queue-drain path; ~6.1k
# on a 2-core host, at the chain's sleep-bound critical path); the
# chained workload has nothing to reorder (~4.2k).
# BENCH_state.json's BenchmarkExecutorTiered rows predate the removal of
# the tiered state backend; no run refreshes them any more.
#
# Each run refreshes the "benchmarks" snapshot AND appends a dated entry
# to the "runs" trajectory in the output file, so the perf history
# accumulates across PRs instead of being overwritten.
#
# The default bench time is sized so every executor row completes
# multiple iterations (single-iteration rows carry no variance
# information); override with BENCHTIME for quick passes.
#
# Usage: scripts/bench_baseline.sh [output.json]
set -eu

out="${1:-BENCH_state.json}"
benchtime="${BENCHTIME:-500ms}"

raw=$(go test -bench '.' -benchtime "$benchtime" -run '^$' \
	./internal/state/ ./internal/types/ ./internal/execution/ \
	./internal/ordering/ ./internal/persist/)

snapshot=$(mktemp)
trap 'rm -f "$snapshot"' EXIT

printf '%s\n' "$raw" | awk -v ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" '
BEGIN { print "{"; printf "  \"benchmarks\": [\n"; first = 1 }
/^Benchmark/ {
	name = $1; iters = $2; nsop = $3
	extra = ""
	for (i = 5; i < NF; i += 2) {
		extra = extra sprintf(", \"%s\": %s", $(i+1), $i)
	}
	if (!first) printf ",\n"
	first = 0
	printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}", name, iters, nsop, extra
}
/^cpu:/ { cpu = substr($0, 6); gsub(/^ +| +$/, "", cpu) }
END {
	printf "\n  ],\n"
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"gomaxprocs\": %s\n", (ncpu ? ncpu : "null")
	print "}"
}' >"$snapshot"

# Merge: fresh snapshot replaces "benchmarks"; the prior file's "runs"
# trajectory is carried forward with this run appended (name, ns_per_op,
# tx/s, and per-stage stage_* latency metrics where reported — compact
# enough to accumulate indefinitely). Every invocation appends exactly
# one dated entry, even when the prior file is missing or corrupt.
python3 - "$snapshot" "$out" <<'EOF'
import json, os, sys, datetime

snapshot_path, out_path = sys.argv[1], sys.argv[2]
with open(snapshot_path) as f:
    doc = json.load(f)

runs = []
if os.path.exists(out_path):
    try:
        with open(out_path) as f:
            runs = json.load(f).get("runs", [])
    except (json.JSONDecodeError, OSError):
        runs = []

entry = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "results": [
        {
            k: row[k]
            for k in row
            if k in ("name", "ns_per_op", "tx/s") or k.startswith("stage_")
        }
        for row in doc["benchmarks"]
    ],
}
runs.append(entry)
doc["runs"] = runs
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF

echo "wrote $out"
