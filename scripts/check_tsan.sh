#!/usr/bin/env bash
# Build the concurrency-sensitive tests under ThreadSanitizer and run them.
# The experiment runner's only cross-thread traffic is the atomic task
# counter and disjoint result slots; the event-kernel tests (calendar
# queue, slab nodes, InlineCallback) are single-threaded per Simulator but
# run here too, because the runner executes one Simulator per worker
# thread and TSan vets that nothing in the kernel shares hidden state.
# The build compiles with -DWLANPS_OBS=ON so the obs hot-path hooks, the
# synchronized log sink, and the per-run ScopedRegistry run under TSan
# (obs_test hammers the logger from 8 threads and the runner merge from 4).
# determinism_test runs scenario grids on the runner's worker pool, so a
# RunFn that shares mutable state across workers trips here.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DWLANPS_SANITIZE=thread -DWLANPS_OBS=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target exp_runner_test sim_simulator_test sim_calendar_queue_test obs_test \
    sim_sharded_test fed_federation_test obs_health_test determinism_test
"./$BUILD_DIR/tests/exp_runner_test"
"./$BUILD_DIR/tests/sim_simulator_test"
"./$BUILD_DIR/tests/sim_calendar_queue_test"
"./$BUILD_DIR/tests/obs_test"
# The sharded kernel is the one subsystem with real cross-thread traffic
# during a simulation (mailbox posts, barrier handoffs, worker pool
# start/stop); its tests run the kernel's ring world at multiple worker
# counts.
"./$BUILD_DIR/tests/sim_sharded_test"
# The federation rides the same kernel but adds slab atomics (state /
# current_ap / epoch) and cross-shard handoff ownership transfers; its
# thread-invariance tests run the full roam/fault machinery at 1/2/4
# workers.
"./$BUILD_DIR/tests/fed_federation_test"
# Health telemetry stages per-quantum counters in shard fields the
# workers write and the coordinator reads back across the barrier; its
# across-thread bit-identity tests run that handoff at 1/2/4 workers
# with watchdog sweeps live.
"./$BUILD_DIR/tests/obs_health_test"
"./$BUILD_DIR/tests/determinism_test"
echo "TSan check passed."
