#!/usr/bin/env bash
# Offline CI gate for the adv-hsc-moe workspace.
#
# Everything here must pass with no network access: the workspace has
# zero external dependencies and Cargo.lock is committed. Usage:
#
#   scripts/ci.sh               # full gate
#   SKIP_FMT=1 scripts/ci.sh    # skip the format check (e.g. no rustfmt)
#   SKIP_CLIPPY=1 scripts/ci.sh # skip the lint gate (e.g. no clippy)
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "repo hygiene: no build artifacts tracked"
if git ls-files -- 'target/*' '*/target/*' | grep -q .; then
  echo "FAIL: build artifacts are tracked in git:" >&2
  git ls-files -- 'target/*' '*/target/*' | head >&2
  exit 1
fi

if [[ -z "${SKIP_FMT:-}" ]]; then
  step "cargo fmt --check"
  cargo fmt --all --check
fi

if [[ -z "${SKIP_CLIPPY:-}" ]]; then
  step "cargo clippy --workspace -- -D warnings"
  cargo clippy --offline --workspace --all-targets -- -D warnings
fi

step "cargo build --release --offline"
cargo build --release --offline --workspace --benches --bins

step "cargo test -q --offline (workspace)"
cargo test -q --offline --release --workspace

step "kernel smoke: serving_sweep GEMM micro-bench + quantized stage"
# serving_sweep's exit code covers the kernel exactness gates, the
# quantized-score tolerance, and JSONL validation of its own run log
# (via amoe_bench::obs_check) — see validate_run_log in the binary.
rm -f target/ci_kernel_smoke.jsonl
AMOE_OBS=target/ci_kernel_smoke.jsonl AMOE_BENCH_SMOKE=1 \
  cargo run --release --offline -p amoe-bench --bin serving_sweep

step "telemetry smoke: tiny training run emits valid JSONL"
AMOE_OBS=target/ci_obs_smoke.jsonl \
  cargo run --release --offline -p amoe-bench --bin obs_smoke

step "serving smoke: load_sweep drives an amoe-serve server over TCP"
rm -f target/ci_serve_smoke.jsonl
AMOE_OBS=target/ci_serve_smoke.jsonl \
  cargo run --release --offline -p amoe-bench --bin load_sweep -- --smoke

step "binary smoke: amoe-serve serve driven over real TCP"
# Exercises the standalone binary end to end: demo-export a
# checkpoint, serve it, drive it with load_sweep's external
# (closed+open loop) stages over pipelined connections, read the
# counters off /vars, then drain gracefully.
cargo build --release --offline -p amoe-serve --bin amoe-serve
rm -rf target/ci_serve_demo && mkdir -p target/ci_serve_demo
./target/release/amoe-serve demo-export --out target/ci_serve_demo >/dev/null
# The batching deadline and batcher sharding are gone; their old flags
# must fail loudly, by name, rather than start a server that ignores
# them.
for BAD_FLAG in "--max-wait-us 1" "--shards 2"; do
  # shellcheck disable=SC2086 # the flag and its value are two words
  BAD_FLAG_OUT="$(timeout 10 ./target/release/amoe-serve serve \
    --ckpt target/ci_serve_demo/model.amoe --spec target/ci_serve_demo/model.spec \
    --addr 127.0.0.1:0 $BAD_FLAG 2>&1)" && {
    echo "FAIL: amoe-serve serve accepted the removed ${BAD_FLAG% *} flag" >&2; exit 1; }
  grep -q -- "unknown argument ${BAD_FLAG% *}" <<<"$BAD_FLAG_OUT" || {
    echo "FAIL: amoe-serve serve did not name the unknown flag: $BAD_FLAG_OUT" >&2; exit 1; }
done
./target/release/amoe-serve serve \
  --ckpt target/ci_serve_demo/model.amoe --spec target/ci_serve_demo/model.spec \
  --addr 127.0.0.1:0 --obs-addr 127.0.0.1:0 \
  > target/ci_serve_demo/addr.txt &
SERVE_PID=$!
ADDR=""
OBS_ADDR=""
for _ in $(seq 100); do
  ADDR="$(sed -n 1p target/ci_serve_demo/addr.txt 2>/dev/null || true)"
  OBS_ADDR="$(sed -n '2s/^obs //p' target/ci_serve_demo/addr.txt 2>/dev/null || true)"
  [[ -n "$ADDR" && -n "$OBS_ADDR" ]] && break
  sleep 0.1
done
if [[ -z "$ADDR" || -z "$OBS_ADDR" ]]; then
  echo "FAIL: amoe-serve did not print its bound addresses" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
AMOE_BENCH_SMOKE=1 \
  cargo run --release --offline -p amoe-bench --bin load_sweep -- --smoke --addr "$ADDR"
# /vars is one line of JSON: the drive above must have run batches,
# and no per-shard block may come back.
VARS="$(./target/release/amoe-serve scrape --obs-addr "$OBS_ADDR" --path /vars)"
BATCHES="$(grep -o '"batches":[0-9]*' <<<"$VARS" | head -n 1 | cut -d: -f2)"
[[ "${BATCHES:-0}" -ge 1 ]] || {
  echo "FAIL: /vars counts ${BATCHES:-no} batches after the load_sweep drive: $VARS" >&2; exit 1; }
if grep -q '"shards_detail"' <<<"$VARS"; then
  echo "FAIL: /vars still carries a shards_detail block: $VARS" >&2; exit 1
fi

step "obs smoke: /metrics lints clean, /healthz and /readyz answer"
# The scrape subcommand is the in-repo Prometheus client: --lint runs
# the exposition validator (grammar, amoe_* naming, monotone cumulative
# buckets, exemplar syntax) over the live page, so a malformed
# exposition fails CI before a real scraper ever sees it.
./target/release/amoe-serve scrape --obs-addr "$OBS_ADDR" --lint \
  > target/ci_serve_demo/metrics.txt
grep -q '^amoe_build_info{' target/ci_serve_demo/metrics.txt || {
  echo "FAIL: /metrics page carries no amoe_build_info gauge" >&2; exit 1; }
grep -q '^amoe_serve_window_request_latency_seconds_bucket{' \
  target/ci_serve_demo/metrics.txt || {
  echo "FAIL: /metrics page carries no windowed latency family" >&2; exit 1; }
./target/release/amoe-serve scrape --obs-addr "$OBS_ADDR" --path /healthz \
  | grep -qx ok || { echo "FAIL: /healthz did not answer ok" >&2; exit 1; }
./target/release/amoe-serve scrape --obs-addr "$OBS_ADDR" --path /readyz \
  | grep -qx ready || { echo "FAIL: /readyz did not answer ready" >&2; exit 1; }
./target/release/amoe-serve shutdown --addr "$ADDR"
wait "$SERVE_PID"

step "online-loop smoke: continuous train→reload under drift"
# A server boots from a demo-export checkpoint; the amoe-online
# daemon consumes the drifting session stream, refits on its sliding
# window and hot-swaps the server through two RELOAD cycles. The daemon
# itself exits non-zero on any failed in-flight request or if fewer
# than --min-reloads swaps land; the scrape afterwards pins the
# freshness gauges (generation counter, model age) on /metrics.
cargo build --release --offline -p amoe-online --bin amoe-online
rm -rf target/ci_online_demo && mkdir -p target/ci_online_demo
./target/release/amoe-serve demo-export --out target/ci_online_demo >/dev/null
./target/release/amoe-serve serve \
  --ckpt target/ci_online_demo/model.amoe --spec target/ci_online_demo/model.spec \
  --addr 127.0.0.1:0 --obs-addr 127.0.0.1:0 \
  > target/ci_online_demo/addr.txt &
ONLINE_SERVE_PID=$!
OADDR=""
OOBS=""
for _ in $(seq 100); do
  OADDR="$(sed -n 1p target/ci_online_demo/addr.txt 2>/dev/null || true)"
  OOBS="$(sed -n '2s/^obs //p' target/ci_online_demo/addr.txt 2>/dev/null || true)"
  [[ -n "$OADDR" && -n "$OOBS" ]] && break
  sleep 0.1
done
if [[ -z "$OADDR" || -z "$OOBS" ]]; then
  echo "FAIL: amoe-serve did not print its bound addresses" >&2
  kill "$ONLINE_SERVE_PID" 2>/dev/null || true
  exit 1
fi
./target/release/amoe-online run --addr "$OADDR" \
  --spec target/ci_online_demo/model.spec \
  --seed-ckpt target/ci_online_demo/model.amoe \
  --export-dir target/ci_online_demo/exports \
  --ticks 6 --refit-every 3 --sessions-per-tick 12 --epochs 1 \
  --min-reloads 2
./target/release/amoe-serve scrape --obs-addr "$OOBS" --lint \
  > target/ci_online_demo/metrics.txt
grep -q '^amoe_model_generation 2$' target/ci_online_demo/metrics.txt || {
  echo "FAIL: /metrics generation gauge did not reach 2 after two reloads" >&2
  exit 1; }
grep -q '^amoe_model_age_seconds ' target/ci_online_demo/metrics.txt || {
  echo "FAIL: /metrics page carries no model age gauge" >&2; exit 1; }
./target/release/amoe-serve shutdown --addr "$OADDR"
wait "$ONLINE_SERVE_PID"

step "staleness smoke: online_sweep frozen-vs-fresh with validated JSONL"
# The bench fails on its own if any swap drops a request, if fewer than
# one refit/RELOAD cycle completes, or if the continuously refreshed
# model does not beat the frozen seed under drift; with AMOE_OBS set it
# re-validates its online_window_row/online_swap_row/online_summary
# records against the obs_check schema.
rm -f target/ci_online_sweep.jsonl
AMOE_OBS=target/ci_online_sweep.jsonl AMOE_BENCH_SMOKE=1 \
  cargo run --release --offline -p amoe-bench --bin online_sweep -- --smoke

step "trace smoke: end-to-end request tracing emits valid Chrome JSON"
# trace_smoke starts a live server with AMOE_TRACE set, drives traced
# traffic, and validates both export paths (GET /trace and the
# drain-time file) against the Chrome trace-event contract —
# schema, finite numbers, monotone per-thread timestamps — via
# amoe_bench::obs_check::validate_chrome_trace.
rm -f target/ci_trace_smoke.json
AMOE_TRACE=target/ci_trace_smoke.json \
  cargo run --release --offline -p amoe-bench --bin trace_smoke

step "noalloc guard: disabled telemetry and tracing allocate nothing"
# Debug build on purpose: the counting allocator must not be optimised
# around, and the zero-allocation contract has to hold without the
# optimiser's help.
cargo test -q --offline --test obs_noalloc

step "ci green"
