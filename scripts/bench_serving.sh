#!/usr/bin/env sh
# Regenerates BENCH_serving.json: the repeated-spec steady-state
# baseline plus the cold-cache duplicate-heavy comparison of
# single-flight coalescing vs. --no-coalesce.
#
# The duplicate-heavy pair uses --worker-delay-ms 1000 (an artificial
# 1 s compute) so the measured effect is queueing, not render noise:
# without coalescing every concurrent duplicate of the cold hot key
# computes independently and the herd serializes over the 2 workers;
# with coalescing the herd costs one compute.
#
# Also records:
# - the cluster comparison: the same duplicate-heavy workload against
#   one node vs. four nodes behind the consistent-hash router, with the
#   fleet-wide compute count (must stay <= unique keys);
# - the serving core at 512 closed-loop clients, plus the
#   10 000-connection open-loop run;
# - the execution-tier comparison: tier_bench runs the kernels and
#   microbenchmarks under interp and block on the bare engine (no
#   observer), each cell verified.
#
# bench_report parses every per-run report and writes the file; it
# fails on a missing or malformed report, and the old file is only
# replaced once the new one has been written whole.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace

# Provenance recorded by loadgen into every report's config block:
# GEM5PROF_COMMIT plus (via --profile-snapshot) the id of a profstore
# snapshot capturing the run's span/metrics window, so a surprising
# number in BENCH_serving.json can be diffed later with
# `servectl profile diff`.
GEM5PROF_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export GEM5PROF_COMMIT

PORT_FILE="$(mktemp)"
OUT_DIR="$(mktemp -d)"
PROF_DIR="$(mktemp -d)"
SERVED_PID=""
CLUSTER_PID=""
CLUSTER_PORT_FILE=""
cleanup() {
    if [ -n "$SERVED_PID" ]; then
        kill "$SERVED_PID" 2>/dev/null || true
        wait "$SERVED_PID" 2>/dev/null || true
    fi
    if [ -n "$CLUSTER_PID" ]; then
        kill "$CLUSTER_PID" 2>/dev/null || true
        wait "$CLUSTER_PID" 2>/dev/null || true
    fi
    rm -rf "$PORT_FILE" "$OUT_DIR" "$PROF_DIR" "$CLUSTER_PORT_FILE"
}
trap cleanup EXIT INT TERM

# start_daemon <extra flags...> — boots a fresh daemon on an ephemeral
# port and sets ADDR.
start_daemon() {
    rm -f "$PORT_FILE"
    target/release/gem5prof-served --addr 127.0.0.1:0 --deadline-ms 900000 \
        --profile-dir "$PROF_DIR" --port-file "$PORT_FILE" "$@" &
    SERVED_PID=$!
    i=0
    while [ ! -s "$PORT_FILE" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "bench_serving: daemon never wrote its port file" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR="$(cat "$PORT_FILE")"
}

stop_daemon() {
    kill -TERM "$SERVED_PID"
    wait "$SERVED_PID" || true
    SERVED_PID=""
}

# --- steady state: repeated-spec workload against a warm cache --------
start_daemon
# Prime fig01 so the run measures cache-served throughput, not one cold
# render amortized over the fleet.
target/release/servectl --addr "$ADDR" --timeout-ms 900000 \
    'figures/fig01?fidelity=quick' > /dev/null
target/release/loadgen --addr "$ADDR" --clients 64 --requests 100 \
    --profile-snapshot --json > "$OUT_DIR/steady.json"
stop_daemon

# --- duplicate-heavy cold cache: coalescing on, then off --------------
start_daemon --workers 2 --worker-delay-ms 1000
target/release/loadgen --addr "$ADDR" --clients 32 --requests 3 \
    --paths /tables/table1,/tables/table2 --duplicate-fraction 0.9 \
    --profile-snapshot --json > "$OUT_DIR/coalesced.json"
stop_daemon

start_daemon --workers 2 --worker-delay-ms 1000 --no-coalesce
target/release/loadgen --addr "$ADDR" --clients 32 --requests 3 \
    --paths /tables/table1,/tables/table2 --duplicate-fraction 0.9 \
    --profile-snapshot --json > "$OUT_DIR/no_coalesce.json"
stop_daemon

# --- cluster: duplicate-heavy, 1 node vs 4 nodes ----------------------
# Same cold-cache duplicate-heavy mix as above (2 unique table keys,
# 0.9 duplicate fraction, 1 s artificial compute). Single node first,
# then 4 nodes behind the router; the fleet's total computes are read
# from every member afterwards — the ring + per-owner single-flight
# must keep them <= the 2 unique keys.
start_daemon --workers 2 --worker-delay-ms 1000
target/release/loadgen --addr "$ADDR" --clients 32 --requests 3 \
    --paths /tables/table1,/tables/table2 --duplicate-fraction 0.9 \
    --profile-snapshot --json > "$OUT_DIR/cluster1.json"
stop_daemon

CLUSTER_PORT_FILE="$(mktemp)"
rm -f "$CLUSTER_PORT_FILE"
# The router inherits stdout; point it at stderr so command
# substitutions and pipes over this script's stdout see EOF promptly.
target/release/gem5prof-cluster --addr 127.0.0.1:0 --spawn 4 \
    --port-file "$CLUSTER_PORT_FILE" \
    --node-arg --deadline-ms --node-arg 900000 \
    --node-arg --workers --node-arg 2 \
    --node-arg --worker-delay-ms --node-arg 1000 >&2 &
CLUSTER_PID=$!
i=0
while [ ! -s "$CLUSTER_PORT_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "bench_serving: cluster router never wrote its port file" >&2
        exit 1
    fi
    sleep 0.1
done
RADDR="$(cat "$CLUSTER_PORT_FILE")"
i=0
until target/release/servectl --addr "$RADDR" --timeout-ms 5000 healthz \
    | grep -q '"members_alive": *4'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "bench_serving: cluster never reached 4 live members" >&2
        exit 1
    fi
    sleep 0.1
done
target/release/loadgen --addr "$RADDR" --clients 32 --requests 3 \
    --paths /tables/table1,/tables/table2 --duplicate-fraction 0.9 \
    --json > "$OUT_DIR/cluster4.json"
FLEET_COMPUTES=0
for MADDR in $(target/release/servectl --addr "$RADDR" --timeout-ms 5000 cluster status \
    | grep -o '"addr": *"[^"]*"' | cut -d'"' -f4); do
    NODE_COMPUTES="$(target/release/servectl --addr "$MADDR" --timeout-ms 5000 metrics \
        | awk '/^gem5prof_result_cache_computes_total/ { s += $2 } END { print s+0 }')"
    FLEET_COMPUTES=$((FLEET_COMPUTES + NODE_COMPUTES))
done
kill -TERM "$CLUSTER_PID"
wait "$CLUSTER_PID" || true
rm -f "$CLUSTER_PORT_FILE"
if [ "$FLEET_COMPUTES" -gt 2 ]; then
    echo "bench_serving: fleet computed $FLEET_COMPUTES times for 2 unique keys" >&2
    exit 1
fi

# --- serving core ------------------------------------------------------
# A 512-client closed-loop /healthz workload, then 10 000 concurrent
# open-loop connections from one generator thread. The long idle
# timeout keeps early connections alive while the later waves are
# still dialing.
start_daemon --max-conns 12000 --read-timeout-ms 30000
target/release/loadgen --addr "$ADDR" --clients 512 --requests 20 \
    --paths /healthz --json > "$OUT_DIR/serving_core.json"
target/release/loadgen --addr "$ADDR" --open-loop --connections 10000 \
    --requests 3 --paths /healthz --json > "$OUT_DIR/serving_10k.json"
stop_daemon

# --- execution tiers: interp vs block, bare engine --------------------
# Kernels at simmedium plus every microbenchmark, under Atomic and
# Timing; the binary exits nonzero if the tiers diverge, a rep is not
# deterministic or a checksum is wrong, so a benchmark refresh doubles
# as a correctness gate.
target/release/tier_bench --scale simmedium --reps 3 --json > "$OUT_DIR/tiers.json"

target/release/bench_report "$OUT_DIR" "$FLEET_COMPUTES" > "$OUT_DIR/BENCH_serving.json"
mv "$OUT_DIR/BENCH_serving.json" BENCH_serving.json

echo "bench_serving: wrote BENCH_serving.json"
grep -E '"(coalescing_speedup|ATOMIC|TIMING|all_verified)": ' BENCH_serving.json
