#!/usr/bin/env sh
# Run every JSONL-emitting bench at a pinned tiny scale and consolidate
# the headline numbers into one BENCH_<n>.json — the perf-trajectory
# file the ROADMAP asks for: one such snapshot per PR makes QPS / p99 /
# kIOPS regressions visible across the history without re-running
# anything.
#
#   bench/run_all.sh [BUILD_DIR] [OUT_DIR]
#
# BUILD_DIR defaults to ./build (the release preset), OUT_DIR to the
# repository root. <n> is the first unused index in OUT_DIR. The raw
# per-bench JSONL rows are kept next to the summary in BENCH_<n>.rows/
# when KEEP_RAW=1 is set, and discarded otherwise.
#
# The pinned scale (N=2000 base points, 16 queries) is deliberately far
# below the paper's datasets: the file tracks *trajectory* (did this PR
# halve uring kIOPS? triple p99?), not absolute reproduction numbers —
# those come from the figure benches at full scale.
set -eu

build="${1:-build}"
out="${2:-.}"
n=2000
queries=16

if [ ! -d "$build" ]; then
  echo "build dir '$build' not found; configure and build the benches first:" >&2
  echo "  cmake --preset release && cmake --build --preset release --target benches" >&2
  exit 1
fi

mkdir -p "$out"
run=1
while [ -e "$out/BENCH_$run.json" ]; do
  run=$((run + 1))
done
# The summary is written to a temp name and renamed into place only
# when complete: a bench failing under `set -eu`, or the run being
# killed, must never leave a partial BENCH_<n>.json that the next
# invocation's run-number scan would treat as a finished snapshot.
summary="$out/BENCH_$run.json"
tmp_summary="$summary.tmp.$$"
raw="$(mktemp -d)"
cleanup() {
  rm -f "$tmp_summary"
  if [ "${KEEP_RAW:-0}" = "1" ] && [ -e "$summary" ]; then
    rm -rf "$out/BENCH_$run.rows"
    mv "$raw" "$out/BENCH_$run.rows"
  else
    rm -rf "$raw"
  fi
}
trap cleanup EXIT
# POSIX sh does not guarantee the EXIT trap on signals; route INT/TERM
# through exit so a mid-run kill still cleans up the temp files.
trap 'exit 130' INT
trap 'exit 143' TERM

# Largest value of a numeric key across a JSONL file (0 when absent):
# the headline "peak" for throughput keys, "worst" for latency keys.
jmax() {
  awk -v k="$2" '
    match($0, "\"" k "\":[-0-9.eE+]+") {
      v = substr($0, RSTART + length(k) + 3, RLENGTH - length(k) - 3) + 0;
      if (!seen || v > m) { m = v; seen = 1 }
    }
    END { if (seen) printf "%g", m; else printf "0" }' "$1"
}

# A bench that is missing or exits nonzero fails the whole run: every
# bench still runs (so one invocation reports all failures), but no
# BENCH_<n>.json is written and the script exits 1.
failed=""
run_bench() {
  name="$1"
  shift
  echo "== $name" >&2
  if ! "$build/$name" "$@" --json "$raw/$name.jsonl" > "$raw/$name.log" 2>&1; then
    echo "   FAILED:" >&2
    tail -n 5 "$raw/$name.log" >&2 || true
    failed="$failed $name"
  fi
}

run_bench bench_table2_devices --fast
run_bench bench_uring_vs_threadpool --fast --ms 100 --file-mb 64
run_bench bench_fig11_storage_configs --n "$n" --queries "$queries"
run_bench bench_fig13_query_performance --dataset SIFT --n "$n" \
  --queries "$queries" --shards 4
run_bench bench_fig16_multithreading --n "$n" --queries "$queries"
run_bench bench_streaming_serving --n "$n" --queries 64 --shards 2
run_bench bench_skew_cache --n "$n"
run_bench bench_update_serving --n "$n" --queries 64

if [ -n "$failed" ]; then
  echo "failed benches:$failed; no BENCH_$run.json written" >&2
  exit 1
fi

git_rev="$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null || echo unknown)"

{
  printf '{\n'
  printf '  "run": %s,\n' "$run"
  printf '  "date_utc": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "git": "%s",\n' "$git_rev"
  printf '  "scale": {"n": %s, "queries": %s},\n' "$n" "$queries"
  printf '  "benches": {\n'
  sep=""

  f="$raw/bench_table2_devices.jsonl"
  if [ -s "$f" ]; then
    printf '%b    "table2_devices": {"peak_model_kiops": %s}' \
      "$sep" "$(jmax "$f" model_kiops)"
    sep=",\n"
  fi

  f="$raw/bench_uring_vs_threadpool.jsonl"
  if [ -s "$f" ]; then
    printf '%b    "uring_vs_threadpool": {"peak_file_kiops": %s, "peak_uring_kiops": %s, "worst_file_p99_us": %s, "worst_uring_p99_us": %s}' \
      "$sep" "$(jmax "$f" file_kiops)" "$(jmax "$f" uring_kiops)" \
      "$(jmax "$f" file_p99_us)" "$(jmax "$f" uring_p99_us)"
    sep=",\n"
  fi

  f="$raw/bench_fig11_storage_configs.jsonl"
  if [ -s "$f" ]; then
    printf '%b    "fig11_storage_configs": {"peak_speedup_over_srs": %s}' \
      "$sep" "$(jmax "$f" speedup_over_srs)"
    sep=",\n"
  fi

  f="$raw/bench_fig13_query_performance.jsonl"
  if [ -s "$f" ]; then
    printf '%b    "fig13_query_performance": {"peak_speedup_io_uring": %s, "peak_speedup_xlfdd": %s, "peak_sharded_qps": %s}' \
      "$sep" "$(jmax "$f" speedup_e2lshos_io_uring)" \
      "$(jmax "$f" speedup_e2lshos_xlfdd)" "$(jmax "$f" qps)"
    sep=",\n"
  fi

  f="$raw/bench_fig16_multithreading.jsonl"
  if [ -s "$f" ]; then
    printf '%b    "fig16_multithreading": {"peak_cssd_qps": %s, "peak_xlfdd_qps": %s, "peak_srs_qps": %s}' \
      "$sep" "$(jmax "$f" cssd_measured_qps)" \
      "$(jmax "$f" xlfdd_measured_qps)" "$(jmax "$f" srs_measured_qps)"
    sep=",\n"
  fi

  f="$raw/bench_streaming_serving.jsonl"
  if [ -s "$f" ]; then
    printf '%b    "streaming_serving": {"peak_sustained_qps": %s, "worst_p99_us": %s}' \
      "$sep" "$(jmax "$f" sustained_qps)" \
      "$(awk "BEGIN { printf \"%g\", $(jmax "$f" p99_ns) / 1000 }")"
    sep=",\n"
  fi

  f="$raw/bench_skew_cache.jsonl"
  if [ -s "$f" ]; then
    # headline_* keys are emitted only on the Zipf theta=1.0 rows: the
    # acceptance scenario (cache ~10% of the index) and its no-cache
    # baseline.
    printf '%b    "skew_cache": {"hit_rate_theta1_cache10": %s, "qps_theta1_cache10": %s, "qps_theta1_nocache": %s, "worst_p99_us": %s}' \
      "$sep" "$(jmax "$f" headline_hit_rate)" \
      "$(jmax "$f" headline_qps)" "$(jmax "$f" headline_qps_nocache)" \
      "$(jmax "$f" p99_us)"
    sep=",\n"
  fi

  f="$raw/bench_update_serving.jsonl"
  if [ -s "$f" ]; then
    # headline_p99_ratio: query p99 with the writer at the top update
    # rate over the same shard count's no-writes p99 (acceptance: < 2).
    printf '%b    "update_serving": {"p99_ratio_writes_vs_none": %s, "peak_update_rate": %s, "worst_p99_us": %s}' \
      "$sep" "$(jmax "$f" headline_p99_ratio)" \
      "$(jmax "$f" update_rate_achieved)" "$(jmax "$f" p99_us)"
    sep=",\n"
  fi

  printf '\n  }\n}\n'
} > "$tmp_summary"
mv "$tmp_summary" "$summary"

echo "wrote $summary" >&2
cat "$summary"
