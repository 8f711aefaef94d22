#!/usr/bin/env sh
# The CI gate, as one command: one ctest pass per build flavour — plain
# (build/), ASan+UBSan (tests/run_sanitized.sh) and ThreadSanitizer over
# the concurrent suites — plus the smokes and the benchmark's self-test.
# Label subsets are not re-run: every plain and ASan pass already runs
# every test. Any failure stops the script with a nonzero exit.
#
# Usage: tests/run_ci.sh [ctest args...]   (extra args go to every ctest run)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

# A hung recovery (torture harness, fault injection) must never wedge CI:
# every ctest invocation gets a hard per-test timeout.
timeout=300

echo "== tier 1: build + ctest (build/) =="
cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j "$(nproc)"
ctest --test-dir "$repo/build" --output-on-failure -j "$(nproc)" \
  --timeout "$timeout" "$@"

echo "== tier 1e: bench_server repeated-query smoke (cache on vs off) =="
"$repo/build/bench/bench_server" repeat 4 50 50

echo "== tier 1e3: standing-query smoke (wfqd + /subscribe over HTTP) =="
"$repo/tests/smoke_subscribe.sh" "$repo/build/examples/wfqd"

echo "== tier 1e4: bench_server standing-query smoke (push vs re-query) =="
"$repo/build/bench/bench_server" subscribe 4 20 50

echo "== tier 1g: observability smoke (wfqd + access log + /debug/slow) =="
"$repo/tests/smoke_observability.sh" "$repo/build/examples/wfqd"

echo "== tier 1j: bench_store v1-vs-v2 smoke (compression + pruned scan) =="
"$repo/build/bench/bench_store" \
  --benchmark_filter='BM_StoreClinic.*/1000$' \
  --benchmark_min_time=0.01

echo "== tier 1j2: bench_monitor smoke (E13's standing-query rows) =="
"$repo/build/bench/bench_monitor" --benchmark_min_time=0.01

# wfbench builds its own Release tree under .bench_build/ and runs every
# workload at a tiny size against a real wfqd: a change that breaks a
# workload (a wrong answer, a crash, a missing metric) fails here.
echo "== tier 1k: benchmark self-test (wfbench/smoke.py) =="
(cd "$repo" && python3 wfbench/smoke.py)

echo "== tier 2: AddressSanitizer + UBSan (build-sanitize/) =="
"$repo/tests/run_sanitized.sh" --timeout "$timeout" "$@"

echo "== tier 2e: bench_server repeated-query smoke under ASan/UBSan =="
# The sanitize preset builds tests only; flip the bench tree on for the
# one binary this smoke needs.
cmake --preset asan-ubsan -S "$repo" -DWFLOG_BUILD_BENCH=ON
cmake --build --preset asan-ubsan -j "$(nproc)" --target bench_server
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  "$repo/build-sanitize/bench/bench_server" repeat 2 20 20

# One TSan pass over every concurrent suite: the shard pool, the server
# (its label also covers the cache, subscribe and torture suites) and the
# segment store's counters under readers.
echo "== tier 3: ThreadSanitizer — shard pool, server, segfmt =="
"$repo/tests/run_sanitized.sh" thread -L 'shard|server|segfmt' \
  --timeout "$timeout" "$@"

echo "== CI green =="
