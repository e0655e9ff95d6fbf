#!/usr/bin/env sh
# Tier-1 verification: build, test, and format-check the whole workspace
# fully offline (the workspace has zero external dependencies), then
# smoke-test the serving daemon end to end.
set -eu
cd "$(dirname "$0")/.."

# --workspace so member binaries (gem5prof-served, servectl, loadgen)
# are built too — the root package alone does not pull them in.
cargo build --release --offline --workspace
# The root suite includes the golden-output regression tests
# (tests/golden_repro.rs) — every quick-fidelity figure/table diffed
# byte-for-byte against tests/golden/, under both execution tiers —
# and the interp-vs-block differential gate (tests/exec_tier_diff.rs):
# kernels, fuzzed programs, multi-hart, and starved block caches.
cargo test -q --offline
cargo test -q --offline -p gem5prof-served
# The trace adapter's site resolution and the host model's rules are
# checked against their references in these crates' own tests.
cargo test -q --offline -p hosttrace -p hostmodel
cargo fmt --check
# perfbench (the repository benchmark, a package outside the
# workspace) builds against crates/* by path: its unit tests keep the
# APIs it uses compiling.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Cross-tier equivalence smoke on the bare engine: tier_bench exits
# nonzero if any (workload, CPU model) cell diverges between the interp
# and block tiers, is nondeterministic across reps, or a
# microbenchmark's guest checksum is wrong.
target/release/tier_bench --scale simsmall --reps 1

# Block-tier determinism: full quick-fidelity artifact regeneration
# must be byte-identical across runs and across runner thread counts
# (batching decisions depend only on guest state, never on host timing).
DET_A="$(mktemp)"
DET_B="$(mktemp)"
GEM5PROF_EXEC_TIER=block GEM5PROF_THREADS=1 \
    target/release/repro all --quick > "$DET_A"
GEM5PROF_EXEC_TIER=block GEM5PROF_THREADS=4 \
    target/release/repro all --quick > "$DET_B"
if ! cmp -s "$DET_A" "$DET_B"; then
    echo "verify: block tier output differs across thread counts" >&2
    diff "$DET_A" "$DET_B" | head -20 >&2 || true
    rm -f "$DET_A" "$DET_B"
    exit 1
fi
rm -f "$DET_A" "$DET_B"
echo "verify: block tier byte-identical across thread counts"

# Paper fidelity: every table and figure at paper fidelity, then the
# host-mechanism ablation, must reproduce repro_output.txt byte for byte.
FIDELITY="$(mktemp)"
target/release/repro all > "$FIDELITY"
target/release/repro ablation >> "$FIDELITY"
if ! cmp -s repro_output.txt "$FIDELITY"; then
    echo "verify: repro all + repro ablation differ from repro_output.txt" >&2
    diff repro_output.txt "$FIDELITY" | head -20 >&2 || true
    rm -f "$FIDELITY"
    exit 1
fi
rm -f "$FIDELITY"
echo "verify: paper-fidelity output matches repro_output.txt"

# Layer attribution: the self-profile (a span table on stderr) must book
# host-engine time to its own host_engines span, not to eventq_drain.
SELF_PROFILE="$(target/release/repro fig14 --quick --self-profile 2>&1 >/dev/null)"
if ! printf '%s\n' "$SELF_PROFILE" | grep -q 'host_engines '; then
    echo "verify: repro --self-profile lists no host_engines span" >&2
    printf '%s\n' "$SELF_PROFILE" >&2
    exit 1
fi
echo "verify: self-profile lists the host_engines span"

# Serving smoke test: boot the daemon on an ephemeral port, probe it
# with servectl, then drain it gracefully with SIGTERM.
PORT_FILE="$(mktemp)"
SERVED_PID=""
cleanup() {
    if [ -n "$SERVED_PID" ]; then
        kill "$SERVED_PID" 2>/dev/null || true
    fi
    rm -f "$PORT_FILE"
}
trap cleanup EXIT INT TERM

rm -f "$PORT_FILE"
# A cold quick-fidelity fig01 can exceed the default 30 s request
# deadline on a slow single-core machine; the smoke test is about
# correctness, not latency, so give the daemon a generous deadline.
target/release/gem5prof-served --addr 127.0.0.1:0 --deadline-ms 900000 \
    --port-file "$PORT_FILE" &
SERVED_PID=$!

i=0
while [ ! -s "$PORT_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "verify: daemon never wrote its port file" >&2
        exit 1
    fi
    if ! kill -0 "$SERVED_PID" 2>/dev/null; then
        echo "verify: daemon exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done

ADDR="$(cat "$PORT_FILE")"
target/release/servectl --addr "$ADDR" --timeout-ms 5000 healthz

# Observability smoke: scrape /metrics before and after a figure
# request and check the served-request counter actually incremented.
scrape_requests() {
    target/release/servectl --addr "$ADDR" --timeout-ms 5000 metrics \
        | awk '$1 == "gem5prof_served_requests_total" { print $2 }'
}
BEFORE="$(scrape_requests)"
if [ -z "$BEFORE" ]; then
    echo "verify: /metrics is missing gem5prof_served_requests_total" >&2
    exit 1
fi
target/release/servectl --addr "$ADDR" --timeout-ms 900000 \
    'figures/fig01?fidelity=quick' > /dev/null
AFTER="$(scrape_requests)"
if [ "$AFTER" -le "$BEFORE" ]; then
    echo "verify: request counter did not increment ($BEFORE -> $AFTER)" >&2
    exit 1
fi
echo "verify: /metrics counter incremented ($BEFORE -> $AFTER)"

# Trace-cache footprint: TRACE_CACHE_CAP (8,000,000 events) bounds the
# cached streams' total, so a fresh daemon stays within it after the
# cold fig01 above.
RESIDENT="$(target/release/servectl --addr "$ADDR" --timeout-ms 5000 metrics \
    | awk '$1 == "gem5prof_trace_cache_resident_events" { print $2 }')"
if [ -z "$RESIDENT" ] || [ "$RESIDENT" -gt 8000000 ]; then
    echo "verify: trace cache holds ${RESIDENT:-no} resident events (cap 8000000)" >&2
    exit 1
fi
echo "verify: trace cache holds $RESIDENT resident events (cap 8000000)"

# Cached streams are held encoded, at about 3 bytes per event, so their
# bytes must stay within 6 per resident event.
RESIDENT_BYTES="$(target/release/servectl --addr "$ADDR" --timeout-ms 5000 metrics \
    | awk '$1 == "gem5prof_trace_cache_resident_bytes" { print $2 }')"
if [ -z "$RESIDENT_BYTES" ] || [ "$RESIDENT_BYTES" -gt $((6 * RESIDENT)) ]; then
    echo "verify: trace cache holds ${RESIDENT_BYTES:-no} resident bytes for $RESIDENT events (limit 6 per event)" >&2
    exit 1
fi
echo "verify: trace cache holds $RESIDENT_BYTES resident bytes for $RESIDENT events"

# Host-result memo: fig02 and fig03 profile the same eight gem5 cases and
# three SPEC references on Intel_Xeon, so fig03 must serve all eleven
# host results from the memos (the one kept with each cached stream and
# the SPEC one) without feeding a single cached stream to the host model.
scrape_counter() {
    target/release/servectl --addr "$ADDR" --timeout-ms 5000 metrics \
        | awk -v name="$1" '$1 == name { print $2 }'
}
target/release/servectl --addr "$ADDR" --timeout-ms 900000 \
    'figures/fig02?fidelity=quick' > /dev/null
MEMO_BEFORE="$(scrape_counter gem5prof_trace_cache_host_memo_hits_total)"
REPLAYS_BEFORE="$(scrape_counter gem5prof_trace_cache_host_replays_total)"
target/release/servectl --addr "$ADDR" --timeout-ms 900000 \
    'figures/fig03?fidelity=quick' > /dev/null
MEMO_AFTER="$(scrape_counter gem5prof_trace_cache_host_memo_hits_total)"
REPLAYS_AFTER="$(scrape_counter gem5prof_trace_cache_host_replays_total)"
if [ -z "$MEMO_BEFORE" ] || [ -z "$MEMO_AFTER" ] \
    || [ "$MEMO_AFTER" -lt $((MEMO_BEFORE + 11)) ]; then
    echo "verify: fig03 served ${MEMO_BEFORE:-?} -> ${MEMO_AFTER:-?} host memo hits (want +11)" >&2
    exit 1
fi
if [ -z "$REPLAYS_BEFORE" ] || [ "$REPLAYS_AFTER" != "$REPLAYS_BEFORE" ]; then
    echo "verify: fig03 replayed ${REPLAYS_BEFORE:-?} -> ${REPLAYS_AFTER:-?} host setups (want no change)" >&2
    exit 1
fi
echo "verify: fig03 served $((MEMO_AFTER - MEMO_BEFORE)) host results from the memos, replaying none"

kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""
echo "verify: serving smoke test passed"

# Microbench smoke: one strided microbenchmark and one 2-hart co-run,
# served by a daemon pinned to each execution tier in turn. Every
# response must carry the guest_mips rate and per-hart checksums, and
# the checksums must be identical across tiers — the end-to-end
# HTTP-visible face of the differential suite.
MB_SPEC='{"platform":"intel_xeon","workload":"mem_stride","cpu":"timing"}'
CORUN_SPEC='{"platform":"intel_xeon","workload":"mem_stride","cpu":"timing","harts":2,"corun":"alu"}'
INTERP_SUMS=""
BLOCK_SUMS=""
for TIER in interp block; do
    rm -f "$PORT_FILE"
    GEM5PROF_EXEC_TIER="$TIER" target/release/gem5prof-served \
        --addr 127.0.0.1:0 --deadline-ms 900000 --port-file "$PORT_FILE" &
    SERVED_PID=$!
    i=0
    while [ ! -s "$PORT_FILE" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "verify: $TIER-tier daemon never wrote its port file" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR="$(cat "$PORT_FILE")"
    TIER_SUMS=""
    for SPEC in "$MB_SPEC" "$CORUN_SPEC"; do
        BODY="$(target/release/servectl --addr "$ADDR" --timeout-ms 900000 \
            --post "$SPEC" experiments)"
        if ! printf '%s' "$BODY" | grep -q '"guest_mips"'; then
            echo "verify: $TIER response missing guest_mips for $SPEC" >&2
            exit 1
        fi
        SUMS="$(printf '%s' "$BODY" | grep -o '0x[0-9a-f]\{16\}' | tr '\n' ' ')"
        if [ -z "$SUMS" ]; then
            echo "verify: $TIER response missing checksums for $SPEC" >&2
            exit 1
        fi
        TIER_SUMS="$TIER_SUMS$SUMS/"
    done
    if [ "$TIER" = interp ]; then INTERP_SUMS="$TIER_SUMS"; else BLOCK_SUMS="$TIER_SUMS"; fi
    kill -TERM "$SERVED_PID"
    wait "$SERVED_PID"
    SERVED_PID=""
done
# The co-run response holds two checksums (one per hart): 3 in total
# with the single-hart microbench run. Both the spaces and the `/`
# between specs separate checksums.
if [ "$(printf '%s' "$INTERP_SUMS" | tr ' /' '\n\n' | grep -c '^0x')" -ne 3 ]; then
    echo "verify: expected 3 guest checksums across the two specs: $INTERP_SUMS" >&2
    exit 1
fi
if [ "$INTERP_SUMS" != "$BLOCK_SUMS" ]; then
    echo "verify: guest checksums diverged across tiers" >&2
    echo "verify: interp: $INTERP_SUMS" >&2
    echo "verify: block:  $BLOCK_SUMS" >&2
    exit 1
fi
echo "verify: microbench checksums identical across tiers ($INTERP_SUMS)"

# Chaos soak: three seeded fault-injection episodes against an
# in-process server; exits nonzero (with a one-line repro) if any
# serving invariant breaks or a fault class never fires.
target/release/soak --seeds 3 --secs 5
echo "verify: chaos soak passed"

# Single-flight coalescing check: a fresh daemon (so the compute
# counter starts at zero) with slow workers and a disk tier, hit with a
# duplicate-heavy burst. Coalescing must collapse the herd: the number
# of actual computes can never exceed the number of unique keys (2).
CACHE_DIR="$(mktemp -d)"
rm -f "$PORT_FILE"
target/release/gem5prof-served --addr 127.0.0.1:0 --deadline-ms 900000 \
    --workers 2 --worker-delay-ms 300 --cache-dir "$CACHE_DIR" \
    --port-file "$PORT_FILE" &
SERVED_PID=$!
i=0
while [ ! -s "$PORT_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "verify: coalescing daemon never wrote its port file" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR="$(cat "$PORT_FILE")"
target/release/loadgen --addr "$ADDR" --clients 8 --requests 4 \
    --paths /tables/table1,/tables/table2 --duplicate-fraction 0.9
# Sum across engine labels (a fresh daemon has exactly one engine).
COMPUTES="$(target/release/servectl --addr "$ADDR" --timeout-ms 5000 metrics \
    | awk '/^gem5prof_result_cache_computes_total/ { s += $2 } END { print s+0 }')"
if [ -z "$COMPUTES" ] || [ "$COMPUTES" -gt 2 ]; then
    echo "verify: coalescing failed — $COMPUTES computes for 2 unique keys" >&2
    exit 1
fi
echo "verify: coalescing collapsed the duplicate burst ($COMPUTES computes for 2 keys)"
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""
rm -rf "$CACHE_DIR"
echo "verify: coalescing check passed"

# Cluster smoke: 3 daemons behind the consistent-hash router. A
# duplicate-heavy burst through the router must coalesce FLEET-wide
# (the ring gives each key one owner, so total computes <= unique
# keys), and the fleet must survive kill -9 of a whole member
# mid-service: the router ejects it and re-routes, and a second burst
# completes without a single dropped request.
CLUSTER_PORT_FILE="$(mktemp)"
CLUSTER_CACHE="$(mktemp -d)"
CLUSTER_PID=""
cleanup_cluster() {
    if [ -n "$CLUSTER_PID" ]; then
        kill "$CLUSTER_PID" 2>/dev/null || true
        wait "$CLUSTER_PID" 2>/dev/null || true
    fi
    rm -rf "$CLUSTER_PORT_FILE" "$CLUSTER_CACHE"
}
trap 'cleanup; cleanup_cluster' EXIT INT TERM

rm -f "$CLUSTER_PORT_FILE"
target/release/gem5prof-cluster --addr 127.0.0.1:0 --spawn 3 \
    --cache-dir "$CLUSTER_CACHE" --port-file "$CLUSTER_PORT_FILE" \
    --node-arg --deadline-ms --node-arg 900000 \
    --node-arg --workers --node-arg 2 \
    --node-arg --worker-delay-ms --node-arg 300 >&2 &
CLUSTER_PID=$!
i=0
while [ ! -s "$CLUSTER_PORT_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "verify: cluster router never wrote its port file" >&2
        exit 1
    fi
    if ! kill -0 "$CLUSTER_PID" 2>/dev/null; then
        echo "verify: cluster router exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
RADDR="$(cat "$CLUSTER_PORT_FILE")"

# All three members must be admitted before traffic starts.
i=0
until target/release/servectl --addr "$RADDR" --timeout-ms 5000 healthz \
    | grep -q '"members_alive": *3'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "verify: cluster never reached 3 live members" >&2
        exit 1
    fi
    sleep 0.1
done

target/release/loadgen --addr "$RADDR" --clients 8 --requests 4 \
    --paths /tables/table1,/tables/table2 --duplicate-fraction 0.9

# Fleet-wide computes across every member must not exceed the 2 unique
# keys — the ring plus per-owner single-flight collapse the global herd.
CLUSTER_JSON="$(target/release/servectl --addr "$RADDR" --timeout-ms 5000 cluster status)"
MEMBER_ADDRS="$(printf '%s' "$CLUSTER_JSON" | grep -o '"addr": *"[^"]*"' | cut -d'"' -f4)"
FLEET_COMPUTES=0
for MADDR in $MEMBER_ADDRS; do
    NODE_COMPUTES="$(target/release/servectl --addr "$MADDR" --timeout-ms 5000 metrics \
        | awk '/^gem5prof_result_cache_computes_total/ { s += $2 } END { print s+0 }')"
    FLEET_COMPUTES=$((FLEET_COMPUTES + NODE_COMPUTES))
done
if [ "$FLEET_COMPUTES" -gt 2 ]; then
    echo "verify: cluster coalescing failed — $FLEET_COMPUTES fleet computes for 2 unique keys" >&2
    exit 1
fi
echo "verify: cluster coalesced fleet-wide ($FLEET_COMPUTES computes for 2 keys across 3 nodes)"

# Kill one whole member (SIGKILL: no drain, no goodbye) and burst again.
VICTIM_PID="$(printf '%s' "$CLUSTER_JSON" | grep -o '"pid": *[0-9]*' | head -1 | tr -cd '0-9')"
if [ -z "$VICTIM_PID" ]; then
    echo "verify: /cluster reported no member pids" >&2
    exit 1
fi
kill -9 "$VICTIM_PID"
target/release/loadgen --addr "$RADDR" --clients 8 --requests 4 \
    --paths /tables/table1,/tables/table2 --duplicate-fraction 0.9

# The router must have ejected exactly the dead node.
i=0
until target/release/servectl --addr "$RADDR" --timeout-ms 5000 healthz \
    | grep -q '"members_alive": *2'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "verify: router never ejected the killed member" >&2
        exit 1
    fi
    sleep 0.1
done
echo "verify: cluster survived node kill (member $VICTIM_PID ejected, burst completed)"

kill -TERM "$CLUSTER_PID"
wait "$CLUSTER_PID" || true
CLUSTER_PID=""
echo "verify: cluster smoke test passed"

# Cluster chaos soak: nodes + router with fault injection armed
# fleet-wide AND a seed-chosen node killed mid-burst; the per-request
# invariants (exactly one response, no poisoned body, graceful drain)
# must hold across re-routing and peer fetch.
target/release/soak --seeds 2 --secs 3 --cluster 3
echo "verify: cluster chaos soak passed"

# Continuous-profiling regression gate: snapshots must survive a daemon
# restart, a clean re-run must pass the hot-span gate against the
# blessed baseline (set GEM5PROF_BLESS=1 to accept a changed baseline
# and re-bless instead of failing), and a daemon whose guest_sim
# accounting is inflated by 2 s per call MUST trip the gate (exit 4).
PROF_DIR="$(mktemp -d)"
cleanup_prof() { rm -rf "$PROF_DIR"; }
trap 'cleanup; cleanup_cluster; cleanup_prof' EXIT INT TERM

# start_prof_daemon [ENV=VAL...] — fresh daemon sharing $PROF_DIR. No
# --cache-dir: every profiling window recomputes, so the span windows
# being diffed contain like-for-like work.
start_prof_daemon() {
    rm -f "$PORT_FILE"
    env "$@" target/release/gem5prof-served --addr 127.0.0.1:0 \
        --deadline-ms 900000 --profile-dir "$PROF_DIR" \
        --port-file "$PORT_FILE" &
    SERVED_PID=$!
    i=0
    while [ ! -s "$PORT_FILE" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "verify: profstore daemon never wrote its port file" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR="$(cat "$PORT_FILE")"
}

# The same three specs every window, so per-call self time averages
# over three real computes.
profile_window() {
    for CPU in atomic timing o3; do
        target/release/servectl --addr "$ADDR" --timeout-ms 900000 \
            --post "{\"platform\":\"intel_xeon\",\"workload\":\"dedup\",\"cpu\":\"$CPU\"}" \
            experiments > /dev/null
    done
}

# Window 1: baseline, blessed.
start_prof_daemon
profile_window
target/release/servectl --addr "$ADDR" --timeout-ms 5000 \
    profile snapshot baseline > /dev/null
target/release/servectl --addr "$ADDR" --timeout-ms 5000 profile bless > /dev/null
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""

# Window 2: restart on the same store — the baseline must have survived
# — then a clean re-run must pass the gate against it.
start_prof_daemon
if ! target/release/servectl --addr "$ADDR" --timeout-ms 5000 profile history \
    | grep -q '"label": "baseline"'; then
    echo "verify: baseline snapshot did not survive the daemon restart" >&2
    exit 1
fi
profile_window
target/release/servectl --addr "$ADDR" --timeout-ms 5000 \
    profile snapshot clean > /dev/null
GATE_RC=0
target/release/servectl --addr "$ADDR" --timeout-ms 5000 profile diff > /dev/null \
    || GATE_RC=$?
if [ "$GATE_RC" -eq 4 ]; then
    if [ "${GEM5PROF_BLESS:-0}" = "1" ]; then
        echo "verify: clean run regressed but GEM5PROF_BLESS=1 — re-blessing latest"
        target/release/servectl --addr "$ADDR" --timeout-ms 5000 \
            profile bless > /dev/null
    else
        echo "verify: hot-span gate failed on a clean re-run" >&2
        echo "verify: (rerun with GEM5PROF_BLESS=1 to accept and re-bless)" >&2
        exit 1
    fi
elif [ "$GATE_RC" -ne 0 ]; then
    echo "verify: profile diff failed (exit $GATE_RC)" >&2
    exit 1
fi
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""

# Window 3: inflated guest_sim accounting MUST trip the gate.
start_prof_daemon GEM5PROF_SPAN_INFLATE=guest_sim=2000000000
profile_window
target/release/servectl --addr "$ADDR" --timeout-ms 5000 \
    profile snapshot inflated > /dev/null
GATE_RC=0
target/release/servectl --addr "$ADDR" --timeout-ms 5000 profile diff > /dev/null \
    || GATE_RC=$?
if [ "$GATE_RC" -ne 4 ]; then
    echo "verify: gate did not catch a 2 s/call guest_sim inflation (exit $GATE_RC)" >&2
    exit 1
fi
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""
echo "verify: profstore regression gate passed"
