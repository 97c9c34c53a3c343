#!/usr/bin/env bash
# Build the whole tree under AddressSanitizer + UndefinedBehaviorSanitizer,
# with the obs hooks compiled in, and run the full ctest suite.
# LeakSanitizer (part of ASan) fails a test on any leaked allocation, and
# UBSAN_OPTIONS=halt_on_error=1 turns every UBSan runtime report into a
# test failure, so a green run means zero reports of either kind.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DWLANPS_SANITIZE=address,undefined -DWLANPS_OBS=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
echo "ASan+UBSan check passed."
