#!/usr/bin/env bash
# Tier-1 gate: hermetic build + tests, warning-clean, zero external
# crates. Run from anywhere; operates on the repo root.
#
#   ci/tier1.sh
#
# Policy (see README.md "Hermetic build"): the workspace must build and
# test fully offline with no registry access, and the dependency graph
# must contain only workspace-local packages.

set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

echo "== tier1: hermetic dependency guard"
# Every package in the resolved graph must be a path dependency inside
# this workspace ("source": null). Any registry/git source is a policy
# violation, caught before we spend time compiling.
METADATA=$(cargo metadata --offline --format-version 1)
if command -v jq >/dev/null 2>&1; then
    EXTERNAL=$(printf '%s' "$METADATA" | jq -r '.packages[] | select(.source != null) | .name')
else
    EXTERNAL=$(printf '%s' "$METADATA" | python3 -c '
import json, sys
meta = json.load(sys.stdin)
for pkg in meta["packages"]:
    if pkg["source"] is not None:
        print(pkg["name"])
')
fi
if [ -n "$EXTERNAL" ]; then
    echo "FAIL: non-workspace packages in the dependency graph:" >&2
    printf '  %s\n' $EXTERNAL >&2
    exit 1
fi
echo "   ok: all packages are workspace-local"

echo "== tier1: workspace size (informational, not a gate)"
# ROADMAP tracks this number: the same behaviour from less code.
echo "   $(git ls-files '*.rs' | grep -v '^lwtbench/' | xargs cat | wc -l) lines of .rs"

echo "== tier1: offline release build (all targets, -D warnings)"
cargo build --release --offline --all-targets

echo "== tier1: offline tests (workspace)"
cargo test -q --offline --workspace

echo "== tier1: benchmark self-tests (lwtbench)"
# The repo benchmark is a separate package (own workspace, path deps
# on the runtime crates). Its smoke tests run every workload briefly
# and check every forkjoin checksum against a sequential fold and every
# rpc body byte for byte, so a runtime change that breaks either fails
# here rather than only when the benchmark runs.
cargo test -q --release --offline --manifest-path lwtbench/Cargo.toml

echo "== tier1: doctests (workspace)"
# Also covered by the workspace run above, but kept as an explicit
# gate: the public API examples (Glt quickstart, try_join, FEB,
# lwt-model) must keep compiling and passing.
cargo test -q --offline --workspace --doc

echo "== tier1: concurrency model check (--cfg lwt_model, bounded)"
# Deterministic loom-style exploration of the real lock-free core
# (Chase-Lev deque, MPSC injector, SpinLock, FEB, fiber stack cache,
# parking, future-task and ULT join handshakes)
# under crates/model. The cfg swap rebuilds the checked crates with
# the shim facade, so it gets its own target dir to leave the main
# build cache untouched. Each Checker bounds itself (preemption bound
# 2, per-test execution/time caps); `timeout` is the hard backstop.
CARGO_TARGET_DIR=target/lwt-model \
    RUSTFLAGS="${RUSTFLAGS:-} --cfg lwt_model" \
    timeout 600 cargo test -q --offline -p lwt-model
echo "   ok: model suites green (engine + chase_lev + injector + sync + stack cache + park + kernel idle step + inbox owner wake + waker + timer + join)"

echo "== tier1: passive wait-policy stage (inbox work wakes its owner)"
# Under the passive policy an idle worker sleeps until woken, or until
# its 200 ms backstop. Back-to-back external ULT trees on MassiveThreads
# and Qthreads must never wait out that backstop: work that lands in a
# worker's inbox wakes that worker by name (DESIGN §12). The test is a
# binary of its own, so the forced policy stays inside its process.
cargo test -q --offline --test passive_wake >/dev/null
echo "   ok: no tree waited out the passive backstop"

echo "== tier1: trace-export smoke (LWT_TRACE=1)"
# One real microbench run with tracing on must produce a parseable
# Chrome-trace JSON with events from more than one worker thread. The
# filename carries the config hash of the measurement knobs
# (fig2_create-<hash>.json), so match by glob and require exactly one.
rm -f target/lwt-trace/fig2_create-*.json
LWT_TRACE=1 LWT_THREADS=2 LWT_REPS=3 \
    cargo run --release --offline -q -p lwt-microbench --bin fig2_create >/dev/null
TRACE_OUT=$(ls target/lwt-trace/fig2_create-*.json 2>/dev/null || true)
if [ "$(printf '%s\n' "$TRACE_OUT" | grep -c .)" != 1 ]; then
    echo "FAIL: expected exactly one config-hashed trace file, got: $TRACE_OUT" >&2
    exit 1
fi
python3 - "$TRACE_OUT" <<'PY'
import collections, json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
events = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
assert events, f"{path}: no instant events"
per_tid = collections.Counter(e["tid"] for e in events)
assert all(n >= 1 for n in per_tid.values())
assert len(per_tid) >= 2, f"{path}: events from only {len(per_tid)} worker(s)"
for e in events:
    assert "ts" in e and "pid" in e and "name" in e, f"malformed event: {e}"
print(f"   ok: {len(events)} events across {len(per_tid)} workers in {path}")
PY

echo "== tier1: chaos stage (fault injection under pinned seeds)"
# The failure-injection suite must stay green with the chaos engine
# live: forced steal failures, victim misdirection, stack-cache
# misses, FEB wake perturbations, and injected yields at the default
# rate. Three pinned seeds; identical seeds replay identical fault
# schedules (crates/chaos/tests/determinism.rs pins that property).
for seed in 7 1234 3735928559; do
    echo "   seed $seed"
    LWT_CHAOS_SEED=$seed \
        cargo test -q --offline --test failure_injection >/dev/null
done
echo "   ok: failure-injection suite green under 3 chaos seeds"

echo "== tier1: async-bridge smoke (futures + blocking pool, all backends)"
# The async_ subset of the GLT conformance suite drives spawn_async and
# spawn_blocking across all five backends, then replays under a pinned
# chaos seed with the async fault sites live: AsyncSpuriousWake
# double-enqueues task cells (the begin_poll claim must reject the
# stale entry) and AsyncPollDelay widens the poll/wake race window (the
# coalesce path must not lose the wake).
cargo test -q --offline --test glt_conformance async_ >/dev/null
LWT_CHAOS_SEED=20160926 \
    cargo test -q --offline --test glt_conformance async_ >/dev/null
echo "   ok: async conformance green, plus chaos-seeded spurious-wake replay"

echo "== tier1: watchdog smoke (LWT_WATCHDOG=1, healthy workload)"
# The stall watchdog on a healthy tier-1 workload must report nothing:
# zero false positives is part of the acceptance bar. Stall reports go
# to stderr prefixed "lwt-watchdog:".
WATCHDOG_LOG="target/lwt-watchdog-smoke.log"
LWT_WATCHDOG=1 LWT_THREADS=2 LWT_REPS=3 \
    cargo run --release --offline -q -p lwt-microbench --bin fig2_create \
    >/dev/null 2>"$WATCHDOG_LOG"
if grep -q "lwt-watchdog:" "$WATCHDOG_LOG"; then
    echo "FAIL: watchdog false positives on healthy workload:" >&2
    grep "lwt-watchdog:" "$WATCHDOG_LOG" >&2
    exit 1
fi
echo "   ok: zero stall reports on healthy workload"

echo "== tier1: flight-recorder smoke (seeded FEB deadlock)"
# The watchdog suite seeds a reader blocked on an empty FEB cell
# nobody is filling; with the recorder armed, flagging that stall must
# write a well-formed post-mortem bundle — counters, utilization
# table, per-worker ring tails, and the watchdog/chaos sections (the
# chaos seed makes the bundle replayable).
FLIGHTREC_DIR="$PWD/target/lwt-flightrec-smoke"
rm -rf "$FLIGHTREC_DIR"
LWT_WATCHDOG=1 LWT_FLIGHTREC=1 LWT_FLIGHTREC_DIR="$FLIGHTREC_DIR" \
    cargo test -q --offline --test failure_injection \
    watchdog_flags_a_seeded_feb_deadlock >/dev/null
python3 - "$FLIGHTREC_DIR" <<'PY'
import glob, json, os, sys

dumps = sorted(glob.glob(os.path.join(sys.argv[1], "*.json")))
assert dumps, "no flight-recorder bundle written for the seeded stall"
with open(dumps[0]) as f:
    doc = json.load(f)
for key in ("reason", "unix_ms", "counters", "utilization", "rings", "sections"):
    assert key in doc, f"bundle missing {key!r}"
assert doc["reason"] == "stall", f"unexpected reason {doc['reason']!r}"
assert "ring_dropped" in doc["counters"], "counter snapshot incomplete"
wd = doc["sections"]["watchdog"]
assert any(
    r["kind"] == "blocked" and r["wait"] == "feb" for r in wd["reports"]
), f"watchdog section lacks the seeded FEB block: {wd}"
chaos = doc["sections"]["chaos"]
assert "seed" in chaos and "sites" in chaos, "chaos section must carry replay state"
print(f"   ok: well-formed bundle {os.path.basename(dumps[0])} ({len(dumps)} dump(s))")
PY

echo "== tier1: idle-CPU smoke (passive wait policy must not spin)"
# A quiescent pool in passive mode must burn near-zero process CPU
# across every backend — the acceptance probe for worker parking —
# and the park/unpark counters must balance once everything is
# finalized. The binary asserts both and exits non-zero on violation
# (tolerances: LWT_IDLE_CPU_TOLERANCE_MS, default 150 ms per 800 ms
# idle window).
cargo run --release --offline -q -p lwt-microbench --bin idle_cpu
echo "   ok: parked pools idle at ~zero CPU; park/unpark counters balance"

echo "== tier1: serving smoke (reactor echo, 100 clients x 5 backends)"
# The lwt-net reactor must carry a loopback echo server with 100
# concurrent clients on every backend, all joins bounded (the test
# itself fails on any hang), with the stall watchdog armed: a worker
# wedged by a blocking read — the failure mode the reactor exists to
# prevent — would surface here as an "lwt-watchdog:" stderr report.
SERVING_LOG="target/lwt-serving-smoke.log"
LWT_WATCHDOG=1 \
    cargo test -q --offline --test serving \
    ci_smoke_100_concurrent_clients_every_backend \
    >/dev/null 2>"$SERVING_LOG"
if grep -q "lwt-watchdog:" "$SERVING_LOG"; then
    echo "FAIL: watchdog stall reports during serving smoke:" >&2
    grep "lwt-watchdog:" "$SERVING_LOG" >&2
    exit 1
fi
echo "   ok: 100-client echo green on all backends, zero stall reports"

echo "== tier1: overload smoke (4x connection cap vs 1-worker server)"
# The overload contract under the watchdog, two parts. First the
# deterministic 503 shape: a gated handler saturates a one-slot
# in-flight cap, and the excess request must get a well-formed
# "503 Service Unavailable" with Retry-After while the stall watchdog
# stays silent. Then the macro run: the overload bench offers 4x the
# connection cap to a ONE-worker server (both regimes, both benched
# backends) — every offered request must eventually succeed
# (client_failures == 0: no worker died, nothing wedged) with zero
# stall reports from either process.
OVERLOAD_LOG="target/lwt-overload-smoke.log"
LWT_WATCHDOG=1 \
    cargo test -q --offline --test overload \
    inflight_cap_sheds_with_503_and_retry_after \
    >/dev/null 2>"$OVERLOAD_LOG"
if grep -q "lwt-watchdog:" "$OVERLOAD_LOG"; then
    echo "FAIL: watchdog stall reports during 503-shed smoke:" >&2
    grep "lwt-watchdog:" "$OVERLOAD_LOG" >&2
    exit 1
fi
OVERLOAD_DIR="$PWD/target/lwt-overload-smoke"
rm -f "$OVERLOAD_DIR/BENCH_overload.json"
LWT_WATCHDOG=1 LWT_WORKERS=1 LWT_BENCH_DIR="$OVERLOAD_DIR" \
    LWT_OVERLOAD_CAP=16 LWT_OVERLOAD_REQS=2 \
    cargo bench --offline -q -p lwt-bench --bench overload \
    >/dev/null 2>"$OVERLOAD_LOG"
if grep -q "lwt-watchdog:" "$OVERLOAD_LOG"; then
    echo "FAIL: watchdog stall reports during overload smoke:" >&2
    grep "lwt-watchdog:" "$OVERLOAD_LOG" >&2
    exit 1
fi
python3 - "$OVERLOAD_DIR/BENCH_overload.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
records = doc["benches"]
assert records, "overload smoke wrote no records"
for r in records:
    want = r["offered"] * 2  # LWT_OVERLOAD_REQS=2
    assert r["requests"] == want, (
        f"{r['id']}: {r['requests']}/{want} requests completed — "
        "requests were lost, not shed"
    )
    assert r["client_failures"] == 0, (
        f"{r['id']}: {r['client_failures']} clients exhausted retries"
    )
    assert r["metrics"]["handler_panics"] == 0, (
        f"{r['id']}: worker-side panics during a chaos-free run"
    )
print(f"   {len(records)} records, all offered requests served, 0 failures")
PY
echo "   ok: 503s well-formed, 4x-cap load fully served, zero stall reports"

echo "== tier1: spawn-path smoke (fig2_create vs committed baseline)"
# One quick fig2_create bench run; the spawn path must not regress
# >25% (geometric mean of per-series median ratios) against the
# committed results/BENCH_fig2_create.json. A single series may jitter
# on a loaded box, so individual series only fail at 2x. Tolerances
# overridable for slower/faster CI hosts.
# Absolute: cargo runs the bench with cwd = the package dir, so a
# relative LWT_BENCH_DIR would land under crates/bench/.
SMOKE_DIR="$PWD/target/lwt-bench-smoke"
rm -f "$SMOKE_DIR/BENCH_fig2_create.json"
LWT_BENCH_DIR="$SMOKE_DIR" LWT_THREADS=1 \
    cargo bench --offline -q -p lwt-bench --bench fig2_create >/dev/null
python3 - results/BENCH_fig2_create.json "$SMOKE_DIR/BENCH_fig2_create.json" <<'PY'
import json, math, os, sys

base_path, fresh_path = sys.argv[1], sys.argv[2]
geo_tol = float(os.environ.get("LWT_SPAWN_SMOKE_TOLERANCE", "1.25"))
per_tol = float(os.environ.get("LWT_SPAWN_SMOKE_SERIES_TOLERANCE", "2.0"))

def medians(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["id"]: b["median_ns"] for b in doc["benches"] if b["median_ns"] > 0}

base, fresh = medians(base_path), medians(fresh_path)
shared = sorted(set(base) & set(fresh))
assert shared, f"no common bench ids between {base_path} and {fresh_path}"

ratios = {bid: fresh[bid] / base[bid] for bid in shared}
geomean = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
worst = max(ratios, key=ratios.get)
print(f"   {len(shared)} series; geomean ratio {geomean:.3f} "
      f"(worst {worst}: {ratios[worst]:.2f}x)")
if geomean > geo_tol:
    sys.exit(f"FAIL: spawn medians regressed {geomean:.2f}x > {geo_tol}x vs baseline")
gross = {bid: r for bid, r in ratios.items() if r > per_tol}
if gross:
    lines = ", ".join(f"{bid}: {r:.2f}x" for bid, r in sorted(gross.items()))
    sys.exit(f"FAIL: series regressed beyond {per_tol}x: {lines}")
print("   ok: spawn path within tolerance of committed baseline")
PY

echo "tier1: green"
