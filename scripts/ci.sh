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

step "cargo doc: rustdoc warnings are errors"
# A deleted or private item that a doc comment still links to fails
# here instead of rendering as a dead link.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

step "cargo build --release --offline"
cargo build --release --offline --workspace --bins

step "golden reproduction: repro_all --scale 0.1 matches results/repro_all_scale0.1.txt"
# Every table and figure at a tenth of the data, pinned to the byte.
# The output must be the same at every AMOE_THREADS value, so the run
# repeats on one thread after the host default. A change that moves a
# reproduced number must regenerate the file and say why. The Fig. 6
# CSVs go under target/ so the committed ones stay untouched.
rm -rf target/ci_repro && mkdir -p target/ci_repro
./target/release/repro_all --scale 0.1 --quiet --out target/ci_repro \
  > target/ci_repro/stdout.txt
diff -u results/repro_all_scale0.1.txt target/ci_repro/stdout.txt || {
  echo "FAIL: repro_all --scale 0.1 output differs from the golden file" >&2; exit 1; }
AMOE_THREADS=1 ./target/release/repro_all --scale 0.1 --quiet --out target/ci_repro \
  > target/ci_repro/stdout_t1.txt
diff -u results/repro_all_scale0.1.txt target/ci_repro/stdout_t1.txt || {
  echo "FAIL: repro_all --scale 0.1 at AMOE_THREADS=1 differs from the golden file" >&2; exit 1; }

step "cargo test -q --offline (workspace)"
cargo test -q --offline --release --workspace

step "binary smoke: amoe-serve serve driven by amoe-online over real TCP"
# Exercises the standalone binaries end to end: demo-export a
# checkpoint and serve it; the amoe-online daemon then consumes the
# drifting session stream, probes the server every tick, refits on its
# sliding window and hot-swaps the server through two RELOAD cycles.
# The daemon exits non-zero on any failed in-flight request or if fewer
# than --min-reloads swaps land. The scrapes afterwards pin the
# counters on /vars, the /metrics exposition with its freshness gauges
# (generation counter, model age), and the health endpoints; then the
# server drains gracefully. The server runs with the AMOE_OBS registry
# on, so the linted /metrics page also renders the registry families
# (pool.*, serving.*, serve.* histograms) next to the native series.
rm -rf target/ci_serve_demo && mkdir -p target/ci_serve_demo
./target/release/amoe-serve demo-export --out target/ci_serve_demo >/dev/null
# The batching deadline, batcher sharding and int8 serving are gone;
# their old flags must fail loudly, by name, rather than start a server
# that ignores them.
for BAD_FLAG in "--max-wait-us 1" "--shards 2" "--quantized"; do
  # shellcheck disable=SC2086 # the flag and its value are two words
  BAD_FLAG_OUT="$(timeout 10 ./target/release/amoe-serve serve \
    --ckpt target/ci_serve_demo/model.amoe --spec target/ci_serve_demo/model.spec \
    --addr 127.0.0.1:0 $BAD_FLAG 2>&1)" && {
    echo "FAIL: amoe-serve serve accepted the removed ${BAD_FLAG% *} flag" >&2; exit 1; }
  grep -q -- "unknown argument ${BAD_FLAG% *}" <<<"$BAD_FLAG_OUT" || {
    echo "FAIL: amoe-serve serve did not name the unknown flag: $BAD_FLAG_OUT" >&2; exit 1; }
done
AMOE_OBS=target/ci_serve_demo/obs.jsonl ./target/release/amoe-serve serve \
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
./target/release/amoe-online run --addr "$ADDR" \
  --spec target/ci_serve_demo/model.spec \
  --seed-ckpt target/ci_serve_demo/model.amoe \
  --export-dir target/ci_serve_demo/exports \
  --ticks 6 --refit-every 3 --sessions-per-tick 12 --epochs 1 \
  --min-reloads 2
# /vars is one line of JSON: the daemon's probes must have run
# batches, and no per-shard block may come back.
VARS="$(./target/release/amoe-serve scrape --obs-addr "$OBS_ADDR" --path /vars)"
BATCHES="$(grep -o '"batches":[0-9]*' <<<"$VARS" | head -n 1 | cut -d: -f2)"
[[ "${BATCHES:-0}" -ge 1 ]] || {
  echo "FAIL: /vars counts ${BATCHES:-no} batches after the amoe-online drive: $VARS" >&2; exit 1; }
if grep -q '"shards_detail"' <<<"$VARS"; then
  echo "FAIL: /vars still carries a shards_detail block: $VARS" >&2; exit 1
fi
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
grep -q '^amoe_model_generation 2$' target/ci_serve_demo/metrics.txt || {
  echo "FAIL: /metrics generation gauge did not reach 2 after two reloads" >&2
  exit 1; }
grep -q '^amoe_model_age_seconds ' target/ci_serve_demo/metrics.txt || {
  echo "FAIL: /metrics page carries no model age gauge" >&2; exit 1; }
./target/release/amoe-serve scrape --obs-addr "$OBS_ADDR" --path /healthz \
  | grep -qx ok || { echo "FAIL: /healthz did not answer ok" >&2; exit 1; }
./target/release/amoe-serve scrape --obs-addr "$OBS_ADDR" --path /readyz \
  | grep -qx ready || { echo "FAIL: /readyz did not answer ready" >&2; exit 1; }
./target/release/amoe-serve shutdown --addr "$ADDR"
wait "$SERVE_PID"
# Each batch's JSONL record carries its compute stage, the same reading
# the /vars compute window takes.
grep -q '"event":"serve_batch".*"compute_us":' target/ci_serve_demo/obs.jsonl || {
  echo "FAIL: the AMOE_OBS log holds no serve_batch record with compute_us" >&2
  exit 1; }

step "noalloc guard: disabled telemetry and tracing allocate nothing"
# Unoptimised on purpose: the counting allocator must not be optimised
# around, and the zero-allocation contract has to hold without the
# optimiser's help. The dev profile itself runs at opt-level 1 (root
# Cargo.toml), so this step sets opt-level 0 explicitly.
cargo test -q --offline --config profile.dev.opt-level=0 --test obs_noalloc

step "pinned training fingerprints at opt-level 0"
# The root Cargo.toml claims no opt level changes a float result.
# Tier-1 runs the pinned fingerprints at opt-level 1 and the workspace
# step above at release; this runs them unoptimised.
cargo test -q --offline --config profile.dev.opt-level=0 --test determinism \
  trained_parameters_match_pinned_fingerprints

step "ci green"
