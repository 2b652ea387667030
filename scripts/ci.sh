#!/usr/bin/env bash
# Full offline CI gate: build, test, format check, and an observability
# smoke run. No network access required (the workspace has no external
# dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo ">>> cargo build --release --workspace"
cargo build --release --workspace

echo ">>> cargo test --release --workspace"
cargo test -q --release --workspace

echo ">>> cargo test --release (benchmark package)"
# The repo benchmark is a package of its own (see BENCHMARK.json) that
# builds against the cmt-cache / cmt-bench / cmt-profile public APIs, so
# an API change that breaks it must fail here, not at benchmark time.
cargo test -q --release --manifest-path benchmark/Cargo.toml

echo ">>> cargo fmt --check"
cargo fmt --all --check

echo ">>> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo ">>> cargo test --doc"
cargo test -q --doc --workspace

echo ">>> verify-corpus smoke (32 seeds, step-level differential checks)"
# Replays the first 32 committed fuzz seeds through the verifying
# compound driver: every applied transformation step is executed
# before/after and compared bit-exactly, and permutations are replayed
# over the dependence vectors. Non-zero exit (plus a minimized
# reproducer under the temp dir) on any divergence.
VERIFY_DIR=$(mktemp -d)
cargo run --release -q -p cmt-verify --bin verify_corpus -- --seeds 32 --out "$VERIFY_DIR"
rm -rf "$VERIFY_DIR"

echo ">>> smoke-perf (cache_sim equivalence + determinism + regression gates)"
# Quick-mode bench of the cache engine against the legacy oracle:
# fails on an equivalence mismatch (legacy == engine) or a
# CMT_JOBS determinism mismatch, and when the sharded-vs-legacy geomean
# speedup (sharded_vs_legacy_geomean) drops below 70% of the committed
# BENCH_cache_sim.json (CMT_BENCH_GATE_FRAC default — loose enough that
# quick-mode noise on a shared runner passes, tight enough that an
# engine pessimization fails). The JSON goes to a temp dir so the
# committed baseline stays untouched.
PERF_DIR=$(mktemp -d)
CMT_JOBS=2 CMT_BENCH_QUICK=1 CMT_BENCH_JSON="$PERF_DIR/cache_sim.json" \
  CMT_BENCH_GATE="$PWD/BENCH_cache_sim.json" \
  cargo bench -q -p cmt-bench --bench cache_sim
test -s "$PERF_DIR/cache_sim.json" || { echo "missing bench baseline JSON" >&2; exit 1; }
rm -rf "$PERF_DIR"

echo ">>> observability smoke (fig2_matmul artifacts + trace + report + baseline diff)"
# A traced run of fig2_matmul must produce all four artifacts, the
# report must render from them, and the deterministic fields (counters,
# non-wall-clock histograms, remarks) must match the committed
# results/baseline/ exactly — a counter drift here is a behavior change
# and fails the build. Trace/report land in results/ci so the workflow
# can upload them as an inspectable artifact.
SMOKE_DIR=results/ci
rm -rf "$SMOKE_DIR"
CMT_OBS_DIR="$SMOKE_DIR" CMT_TRACE=1 \
  cargo run --release -q -p cmt-bench --bin fig2_matmul 64 > /dev/null
for f in fig2_matmul.remarks.jsonl fig2_matmul.metrics.json fig2_matmul.trace.json; do
  test -s "$SMOKE_DIR/$f" || { echo "missing artifact: $f" >&2; exit 1; }
done
grep -q '"pass":"permute"' "$SMOKE_DIR/fig2_matmul.remarks.jsonl"
grep -q '"counters"' "$SMOKE_DIR/fig2_matmul.metrics.json"
grep -q '"traceEvents"' "$SMOKE_DIR/fig2_matmul.trace.json"
cargo run --release -q -p cmt-bench --bin cmt-report -- fig2_matmul --dir "$SMOKE_DIR"
test -s "$SMOKE_DIR/fig2_matmul.report.md" || { echo "missing report" >&2; exit 1; }
cargo run --release -q -p cmt-bench --bin obs_diff -- results/baseline "$SMOKE_DIR" fig2_matmul
# The other users of the observed compound runs: fig3/fig7 run compound
# then scalar replacement (pass counters, remarks, attributed
# simulation of the result), table2 runs compound alone over every
# suite model. Their deterministic fields are pinned the same way.
for b in fig3_adi fig7_cholesky table2_memory_order; do
  CMT_OBS_DIR="$SMOKE_DIR" cargo run --release -q -p cmt-bench --bin "$b" > /dev/null
  cargo run --release -q -p cmt-bench --bin obs_diff -- results/baseline "$SMOKE_DIR" "$b"
done
# Table 4's artifact is simulate_observed over every transformed suite
# model at n=64 (per-array attribution, interval snapshots, access
# counts), whatever size the table itself runs at; 96 is
# reproduce_all.sh's quick size. Pinned the same way.
CMT_OBS_DIR="$SMOKE_DIR" cargo run --release -q -p cmt-bench --bin table4_hit_rates 96 > /dev/null
cargo run --release -q -p cmt-bench --bin obs_diff -- results/baseline "$SMOKE_DIR" table4_hit_rates

echo ">>> table gate (committed results/*.txt reproduce byte for byte)"
# The printed tables are the paper's numbers: a simulation or optimizer
# change must leave them unchanged. Each binary's stdout, minus its
# "[obs]" artifact-path lines, must equal the committed text (~5 s).
TABLE_DIR=$(mktemp -d)
for run in table4_hit_rates table2_memory_order table5_access_properties \
  fig8_9_histograms ablation_table "ext_multilevel_tiling 160"; do
  set -- $run
  CMT_OBS_DIR="$TABLE_DIR" "target/release/$1" "${@:2}" | grep -v '^\[obs\]' > "$TABLE_DIR/$1.txt"
  cmp "$TABLE_DIR/$1.txt" "results/$1.txt" \
    || { echo "table differs from results/$1.txt: $run" >&2; diff "$TABLE_DIR/$1.txt" "results/$1.txt" | head -20 >&2; exit 1; }
done
rm -rf "$TABLE_DIR"

echo ">>> profiling smoke (sampled sweep, escalation, agreement + cost gates)"
# Sampled cache-simulation profiling over the first 32 verify-corpus
# seeds plus the paper kernels (n=64, every-16th-window policy), with
# top-5 escalation: full-simulation confirm per flagged nest, then one
# supervised optimization run per flagged program. --check re-profiles
# everything under full simulation; the gates are HotspotProfile's
# constants: the sampled top-5 ranking must match ground truth exactly
# (MIN_TOP_K_AGREEMENT 1.0) and the sampled pass may simulate at most
# 10% of the corpus accesses (MAX_SAMPLED_FRACTION 0.10). Both gates are
# deterministic (corpus, seeds, and sampling phases are fixed) — they
# fail on accuracy or sampled work volume, never on timing. The
# wall-clock in BENCH_profile.json is informational only; the JSON
# goes to the smoke dir so the committed BENCH_profile.json stays
# untouched. profile.json/report land in results/ci for upload.
CMT_JOBS=4 CMT_OBS_DIR="$SMOKE_DIR" cargo run --release -q -p cmt-bench --bin cmt-profile -- \
  --seeds 32 --check --bench-json "$SMOKE_DIR/BENCH_profile.json"
test -s "$SMOKE_DIR/profile_corpus.profile.json" || { echo "missing profile artifact" >&2; exit 1; }
grep -q '"profile.escalated":5' "$SMOKE_DIR/profile_corpus.metrics.json" \
  || { echo "expected 5 escalated nests" >&2; exit 1; }
cargo run --release -q -p cmt-bench --bin cmt-report -- profile_corpus --dir "$SMOKE_DIR"
test -s "$SMOKE_DIR/profile_corpus.report.md" || { echo "missing profile report" >&2; exit 1; }
# The sweep interprets every corpus program and kernel in full: pin
# its deterministic fields (access, window and sampling counters, the
# hotspot ranking, remarks) against the committed baseline, so an
# interpreter change that moves a single access fails here.
cargo run --release -q -p cmt-bench --bin obs_diff -- results/baseline "$SMOKE_DIR" profile_corpus

echo ">>> smoke-analytic (analytic model vs simulator, live gate)"
# The committed full-corpus report (BENCH_analytic.json) is gated by
# the tier-1 test tests/committed_baselines.rs under `cargo test`. Here
# a live differential sweep over the first 32 verify-corpus seeds plus
# the paper kernels: predict every nest symbolically on all three
# geometries, simulate the same corpus in full, and fail (the
# AnalyticReport gate constants) on tie-aware top-5 hotspot-ranking
# agreement < 0.9 or mean per-nest relative miss error > 0.25 on any
# geometry. Both gates are deterministic. Artifacts land in results/ci
# for upload; the report's "Analytic vs simulated" section renders
# from them.
CMT_JOBS=4 CMT_OBS_DIR="$SMOKE_DIR" cargo run --release -q -p cmt-bench --bin cmt-analytic -- \
  --seeds 32 --name analytic_corpus
test -s "$SMOKE_DIR/analytic_corpus.analytic.json" || { echo "missing analytic artifact" >&2; exit 1; }
cargo run --release -q -p cmt-bench --bin cmt-report -- analytic_corpus --dir "$SMOKE_DIR"
grep -q '## Analytic vs simulated' "$SMOKE_DIR/analytic_corpus.report.md" \
  || { echo "report missing analytic section" >&2; exit 1; }
# Its simulated side interprets the same corpus: pin the simulated
# misses, the predictions and the remarks against the committed
# baseline too.
cargo run --release -q -p cmt-bench --bin obs_diff -- results/baseline "$SMOKE_DIR" analytic_corpus

echo ">>> smoke-explain (decision provenance, oracle disagreement + regret gates)"
# The committed full-corpus summary (BENCH_explain.json) is gated by
# the tier-1 test tests/committed_baselines.rs under `cargo test`. Here
# a live sweep over the first 32 seeds plus the paper kernels: run the
# compound driver under both rank oracles with full decision capture,
# join the streams, simulate both transformed corpora, and fail (the
# ExplainReport gate constants) on an oracle-disagreement rate > 0.20
# or LoopCost regret vs best-of-both > 0.05. Both gates are
# deterministic. The explain.json artifact lands in results/ci; the
# report's "Decisions" section renders from it.
CMT_JOBS=4 CMT_OBS_DIR="$SMOKE_DIR" cargo run --release -q -p cmt-bench --bin cmt-explain -- \
  --seeds 32 --name explain_corpus
test -s "$SMOKE_DIR/explain_corpus.explain.json" || { echo "missing explain artifact" >&2; exit 1; }
cargo run --release -q -p cmt-bench --bin cmt-report -- explain_corpus --dir "$SMOKE_DIR"
grep -q '## Decisions' "$SMOKE_DIR/explain_corpus.report.md" \
  || { echo "report missing decisions section" >&2; exit 1; }
# Pin every compound decision of the sweep byte for byte against the
# committed baseline: candidate costs, margins, desired and achieved
# orders, remarks and counters. A speed-up of the optimizer must not
# move any of them.
cargo run --release -q -p cmt-bench --bin obs_diff -- results/baseline "$SMOKE_DIR" explain_corpus

echo ">>> clippy (every package and target, warnings are errors)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo ">>> clippy unwrap gate (bench + resilience + serve failure paths stay panic-free)"
cargo clippy -q --no-deps -p cmt-bench -p cmt-resilience -p cmt-serve -- -D clippy::unwrap_used

echo ">>> chaos smoke (32 seeds, seeded fault plans, supervised rollback)"
# Sweeps the first 32 verify-corpus seeds through the supervised
# pipeline with per-item fault plans derived from a fixed seed: panics,
# IR corruption, budget exhaustion, and forced divergences must all be
# contained (clean exit), degraded items must land as minimized
# quarantine reproducers under results/ci so the workflow uploads them.
CMT_JOBS=4 cargo run --release -q -p cmt-bench --bin chaos_corpus -- \
  --seeds 32 --fault-seed 7 --out "$SMOKE_DIR"
test -s "$SMOKE_DIR/chaos_summary.txt" || { echo "missing chaos summary" >&2; exit 1; }
grep -q '^total: 32 swept' "$SMOKE_DIR/chaos_summary.txt"
# Fault seed 7 deterministically degrades at least one item; its
# reproducer must exist.
if grep -q ' degraded \[' "$SMOKE_DIR/chaos_summary.txt"; then
  ls "$SMOKE_DIR"/quarantine/quarantine_seed*.txt > /dev/null \
    || { echo "degraded items but no quarantine artifacts" >&2; exit 1; }
fi

echo ">>> smoke-serve (TCP service under fault-injected load, drain on SIGTERM)"
# Starts the memoizing compile server on a free port and drives the
# 32-seed corpus + paper kernels through it: 4 concurrent clients, two
# passes (the second replays the first through the memo cache), and a
# deterministic fault plan per request (seed 7). Gates (the
# ServerBenchReport constants): every request answered structurally
# (zero malformed replies / transport failures), second-pass hit rate
# ≥ 0.5, and --check against the deterministic fields of the committed
# BENCH_server.json within 0.05 (reply-class counts, hit/shed rates) —
# wall-clock latency drift is informational only, so a slow runner
# cannot fail the gate. `--deadline-ms 0` disables the wall-clock
# budget for the same reason: fidelity counts must not depend on host
# speed. SIGTERM then exercises the drain path; the flushed server
# artifacts must exist. The binary runs directly (not under `cargo
# run`) so the signal reaches the server process.
SERVE_PORT_FILE=$(mktemp)
rm -f "$SERVE_PORT_FILE"
target/release/cmt-serve --port 0 --port-file "$SERVE_PORT_FILE" \
  --deadline-ms 0 --obs-dir "$SMOKE_DIR" --name serve_smoke > /dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do test -s "$SERVE_PORT_FILE" && break; sleep 0.1; done
test -s "$SERVE_PORT_FILE" || { echo "cmt-serve did not start" >&2; kill "$SERVE_PID" 2>/dev/null; exit 1; }
CMT_OBS_DIR="$SMOKE_DIR" cargo run --release -q -p cmt-bench --bin cmt-serve-bench -- \
  --connect "127.0.0.1:$(cat "$SERVE_PORT_FILE")" --seeds 32 --clients 4 --passes 2 \
  --fault-seed 7 --check "$PWD/BENCH_server.json" --bench-json "$SMOKE_DIR/BENCH_server.json" \
  --artifact serve_smoke
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "cmt-serve exited non-zero" >&2; exit 1; }
rm -f "$SERVE_PORT_FILE"
for f in serve_smoke.metrics.json serve_smoke.remarks.jsonl serve_smoke.server.json; do
  test -s "$SMOKE_DIR/$f" || { echo "missing serve artifact: $f" >&2; exit 1; }
done
grep -q '"server.requests"' "$SMOKE_DIR/serve_smoke.metrics.json"
cargo run --release -q -p cmt-bench --bin cmt-report -- serve_smoke --dir "$SMOKE_DIR"
grep -q '## Service' "$SMOKE_DIR/serve_smoke.report.md" \
  || { echo "report missing service section" >&2; exit 1; }

echo "CI OK"
