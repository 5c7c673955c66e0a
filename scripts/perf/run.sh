#!/usr/bin/env bash
# scripts/perf/run.sh — the committed benchmark grid.
#
# Runs clusterbench -workload over the full cell grid
# (uniform/zipfian x cache on/off, closed loop, over the binary
# inter-node transport — cells keep their -binary- labels) plus the
# overload trio (capacity probe, then 2x-capacity open loop with and
# without admission control), the durability pair (WAL group-commit
# microbench and the durable-cluster capacity cell), the anti-entropy
# convergence cell (a restarted-empty replica rebuilt by Merkle sync
# alone), N repeats per cell with varying seeds, and aggregates the raw
# JSON lines into bench/BENCH_<date>.json with mean/stddev per cell.
# scripts/perf/compare diffs two BENCH files and fails on regressions.
#
# Usage:
#   ./scripts/perf/run.sh            # full grid -> bench/BENCH_<date>.json
#   ./scripts/perf/run.sh -quick     # 1 repeat, short windows, temp output (CI smoke)
set -euo pipefail

cd "$(dirname "$0")/../.."

REPEATS=3
DURATION=2s
OVER_DURATION=3s
WAL_DURATION=2s
QUICK=0
if [[ "${1:-}" == "-quick" ]]; then
    QUICK=1
    REPEATS=1
    DURATION=800ms
    OVER_DURATION=800ms
    WAL_DURATION=500ms
fi

# Fewer, bigger GC cycles: on a small shared host the default GOGC makes
# the collector the dominant noise source across repeats.
export GOGC="${GOGC:-400}"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
BIN="$TMP/clusterbench"
AGG="$TMP/aggregate"
RAW="$TMP/raw.jsonl"

echo "== building =="
go build -o "$BIN" ./cmd/clusterbench
go build -o "$AGG" ./scripts/perf/aggregate

# bench <args...> — one clusterbench invocation per repeat, seeds varied.
bench() {
    for rep in $(seq 1 "$REPEATS"); do
        "$BIN" -seed $((42 + rep * 1000)) -json "$RAW" -duration "$DURATION" "$@"
        echo
    done
}

echo "== grid: dist x cache (closed loop, 64B values) =="
for dist in uniform zipfian; do
    for cache in false true; do
        echo "-- cell: $dist-binary-cache=$cache --"
        bench -workload "$dist" -cache="$cache" \
            -wkeys 512 -workers 16 -valuesize 64
    done
done

echo "== overload trio (zipfian, 4KB values) =="
# One capacity probe: MaxPending bounds admission without changing how
# a request is served (GET and SETV run on the read loop either way),
# so a probe with -maxpending would measure the same path twice. The
# 2x offer is judged against this probe.
CAP_INLINE="capacity-inline-closed-4k"
for rep in $(seq 1 "$REPEATS"); do
    "$BIN" -seed $((42 + rep * 1000)) -json "$RAW" -duration "$OVER_DURATION" \
        -workload zipfian -wkeys 128 -valuesize 4096 -workers 32 \
        -label "$CAP_INLINE"
    echo
done
CAPACITY=$("$AGG" -in "$RAW" -capacity "$CAP_INLINE")
OFFERED=$((CAPACITY * 2))
echo "capacity ~= $CAPACITY ops/s -> offering $OFFERED qps"

# The same 2x-capacity open-loop storm, unprotected vs admission-controlled.
for rep in $(seq 1 "$REPEATS"); do
    "$BIN" -seed $((42 + rep * 1000)) -json "$RAW" -duration "$OVER_DURATION" \
        -workload zipfian -wkeys 128 -valuesize 4096 \
        -workers 128 -qps "$OFFERED" -label "overload-open-2x"
    echo
    "$BIN" -seed $((42 + rep * 1000)) -json "$RAW" -duration "$OVER_DURATION" \
        -workload zipfian -wkeys 128 -valuesize 4096 \
        -workers 128 -qps "$OFFERED" -maxpending 64 -label "overload-open-2x-shed"
    echo
done

echo "== durability: wal group commit + durable capacity =="
# The group-commit microbench isolates the fsync batching win from the
# cluster stack: the same 64 concurrent writers, first paying one fsync
# per record (serialized), then batched by the commit loop. Both land as
# labeled cells; EXPERIMENTS E16 requires >=5x at 64 writers.
for rep in $(seq 1 "$REPEATS"); do
    "$BIN" -walbench -walwriters 64 -waldur "$WAL_DURATION" -json "$RAW"
    echo
done
# The durable capacity cell is the honest overhead number: the capacity
# probe rerun with every write fsynced (group-committed) before its ack,
# judged against CAP_INLINE above. Its -maxpending 1024 never sheds 32
# closed-loop workers and serves requests on the same path.
for rep in $(seq 1 "$REPEATS"); do
    "$BIN" -seed $((42 + rep * 1000)) -json "$RAW" -duration "$OVER_DURATION" \
        -workload zipfian -wkeys 128 -valuesize 4096 -workers 32 \
        -maxpending 1024 -durable -label "capacity-durable-closed-4k"
    echo
done

echo "== anti-entropy convergence (divergence = a replica restarted empty) =="
# Merkle sync is the only path that rebuilds the node: the cell records
# how long its restart catch-up plus SyncNow take to reach a quiet pass
# over 10k diverged keys, and the run itself asserts the repair volume
# equals the divergence exactly.
AE_KEYS=10000
if [[ "$QUICK" == 1 ]]; then
    AE_KEYS=1000
fi
for rep in $(seq 1 "$REPEATS"); do
    "$BIN" -antientropy -aekeys "$AE_KEYS" -seed $((42 + rep * 1000)) -json "$RAW"
    echo
done

echo "== recovery: parallel replay + WAL-streaming re-replication =="
# Two ratio cells hold the recovery story: recovery-replay-1m records
# the parallel-over-serial replay speedup on a 1M-record log (pure
# replay, no snapshot — the worst case), and rereplicate-stream-vs-keys
# records how much faster a wiped disk rebuilds via SYNCWAL streaming
# than via key-by-key Merkle span repair. The bench itself enforces the
# EXPERIMENTS E18 floors (>=3x replay on a multi-core host, >=2x
# streaming) on full runs; -quick only smoke-tests the paths.
RECOVERY_FLAGS=()
if [[ "$QUICK" == 1 ]]; then
    RECOVERY_FLAGS=(-quick)
fi
for rep in $(seq 1 "$REPEATS"); do
    "$BIN" -recoverybench "${RECOVERY_FLAGS[@]}" -seed $((42 + rep * 1000)) -json "$RAW"
    echo
done

echo "== aggregate =="
DATE=$(date +%F)
if [[ "$QUICK" == 1 ]]; then
    OUT="$TMP/BENCH_$DATE.json"
else
    mkdir -p bench
    OUT="bench/BENCH_$DATE.json"
fi
"$AGG" -in "$RAW" -out "$OUT" -date "$DATE" \
    -note "3-node cluster, replicas=3, W=2 R=2, single host, GOGC=$GOGC; capacity probe $CAPACITY ops/s, overload cells offered ${OFFERED} qps"
echo "wrote $OUT"
