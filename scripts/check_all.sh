#!/usr/bin/env bash
# The whole gate, one command: tier-1 tests, the ThreadSanitizer and
# ASan+UBSan passes, the event-kernel perf regression check, the backend
# cross-validation gate, the policy-ablation gate, and the kernel health
# gate — exactly what CI runs (.github/workflows/ci.yml) and what a PR
# must keep green.
#
#   1. tier-1: configure + build the default tree, run the full ctest suite
#      (includes sim_sharded_test: strict bit-identity at every worker
#      thread count)
#   2. scripts/check_tsan.sh: concurrency-sensitive tests under TSan,
#      including the sharded kernel's mailbox/barrier traffic
#   3. scripts/check_asan.sh: the full ctest suite under AddressSanitizer
#      + UndefinedBehaviorSanitizer with obs hooks on — zero leaks and
#      zero UBSan reports
#   4. scripts/check_perf.sh: gated benchmarks (event kernel, BER→PER
#      lookups, sharded hotspot) within 5% of baseline, obs-enabled
#      null-check overhead within 5%, sharded 4-thread speedup >= 2.5x on
#      hosts with >= 4 cores
#   5. scripts/check_xval.sh: analytic backend agrees with the simulator
#      on the AB12 calibration grid (per-point saving within 5%)
#   6. policy ablation: the AB14 power-policy x fault grid in --quick
#      mode (asserts per-cell ledger reconciliation within 1e-9 J and
#      the μNap idle_listen -> nav_sleep reallocation); the policy unit
#      and determinism tests already ran inside tier-1 ctest
#   7. scripts/check_health.sh: kernel health telemetry gate — seeded
#      invariant corruption is caught by the watchdog within one sweep,
#      clean runs report zero violations, the WPSM golden fixture
#      decodes byte for byte, and the health JSON is bit-identical
#      across worker-thread counts
#
# Usage: scripts/check_all.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

echo "=== [1/7] tier-1: build + ctest ==="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "=== [2/7] ThreadSanitizer ==="
scripts/check_tsan.sh

echo "=== [3/7] AddressSanitizer + UBSan ==="
scripts/check_asan.sh

echo "=== [4/7] perf regression gate ==="
scripts/check_perf.sh

echo "=== [5/7] backend cross-validation gate ==="
scripts/check_xval.sh "$BUILD_DIR"

echo "=== [6/7] policy-ablation gate ==="
"./$BUILD_DIR/bench/bench_ab14_policy_ablation" --quick

echo "=== [7/7] kernel health gate ==="
scripts/check_health.sh "$BUILD_DIR"

echo "All checks passed."
