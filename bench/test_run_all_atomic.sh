#!/usr/bin/env sh
# Regression test for the partial-snapshot bug in bench/run_all.sh: a
# run killed (or failing) mid-way must leave NO BENCH_<n>.json and no
# temp files behind, because the next invocation's run-number scan
# treats any existing BENCH_<n>.json as a completed snapshot. Runs
# against a stub build dir, so it needs no compiled benches.
#
#   bench/test_run_all_atomic.sh
set -eu

script_dir=$(cd "$(dirname "$0")" && pwd)
run_all="$script_dir/run_all.sh"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fake="$work/build"
out="$work/out"
mkdir -p "$fake" "$out"

stubs="bench_table2_devices bench_uring_vs_threadpool \
bench_fig11_storage_configs bench_fig13_query_performance \
bench_fig16_multithreading bench_streaming_serving bench_skew_cache \
bench_update_serving"

# Every stub accepts the real flag vocabulary and emits one JSONL row;
# a nonzero sleep makes a stub dawdle so the kill lands mid-run, and the
# stub named by the optional second argument exits 1.
write_stubs() {
  sleep_s="$1"
  failing="${2:-}"
  for b in $stubs; do
    code=0
    [ "$b" = "$failing" ] && code=1
    cat > "$fake/$b" <<EOF
#!/bin/sh
json=""
prev=""
for a in "\$@"; do
  [ "\$prev" = "--json" ] && json="\$a"
  prev="\$a"
done
[ "$sleep_s" != "0" ] && sleep "$sleep_s"
[ -n "\$json" ] && printf '{"bench":"stub","qps":1,"p99_us":2}\n' > "\$json"
exit $code
EOF
    chmod +x "$fake/$b"
  done
}

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# --- Phase 1: kill mid-run -> nothing may land in OUT_DIR. -----------------
write_stubs 5
sh "$run_all" "$fake" "$out" >/dev/null 2>&1 &
pid=$!
sleep 1
kill -TERM "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

for f in "$out"/BENCH_*; do
  [ -e "$f" ] && fail "killed run left '$f' behind"
done

# --- Phase 2: a clean run still writes BENCH_1.json atomically. ------------
write_stubs 0
sh "$run_all" "$fake" "$out" >/dev/null 2>&1 || fail "clean run failed"
[ -s "$out/BENCH_1.json" ] || fail "clean run wrote no BENCH_1.json"
grep -q '"benches"' "$out/BENCH_1.json" || fail "BENCH_1.json is malformed"
for f in "$out"/BENCH_1.json.tmp.*; do
  [ -e "$f" ] && fail "temp summary '$f' survived the rename"
done

# --- Phase 3: numbering continues past the completed snapshot. --------------
sh "$run_all" "$fake" "$out" >/dev/null 2>&1 || fail "second run failed"
[ -s "$out/BENCH_2.json" ] || fail "second run did not advance to BENCH_2"

# --- Phase 4: a failing bench fails the run and writes no snapshot. ---------
write_stubs 0 bench_fig16_multithreading
if sh "$run_all" "$fake" "$out" >/dev/null 2>&1; then
  fail "run with a failing bench exited 0"
fi
[ -e "$out/BENCH_3.json" ] && fail "run with a failing bench wrote BENCH_3.json"
for f in "$out"/BENCH_3.json.tmp.*; do
  [ -e "$f" ] && fail "failed run left '$f' behind"
done

echo "PASS: run_all.sh snapshots are atomic"
