#!/usr/bin/env bash
# Perf regression gate for the event kernel and the sharded runtime.
#
# Builds Release, runs bench_perf_kernel, and fails if the CPU time of any
# gated benchmark regresses more than 5% against the checked-in baseline
# (scripts/perf_baseline.json).  Gated set:
#
#   * BM_EventPostDispatch      — the no-handle event kernel fast path
#   * BM_PerTableLookup         — scalar BER→PER interpolation
#   * BM_PerTableLookupBatch    — vectorized burst BER→PER interpolation
#   * BM_Federation/0           — 2,000-client, 16-AP federation, inline kernel
#
# The baseline is machine-specific; refresh it with --update-baseline when
# benching on new hardware, and treat cross-machine failures as advisory.
# Gating statistic is the MIN across repetitions: best-achievable time is
# far more stable than the median on loaded or frequency-scaled hosts,
# where a background blip can shift the median of a short run by 10%+.
#
# Sharded speedup gate: BM_Federation/4 (4 worker threads) must beat
# BM_Federation/0 (inline) by >= 2.5x wall clock — enforced only when
# the host has >= 4 cores.  On smaller hosts (including the single-core CI
# container) barrier-quantum workers cannot run concurrently, so the ratio
# is reported but not gated.
#
# A second Release build with -DWLANPS_OBS=ON gates the observability
# cost two ways, each within 5%:
#
#   * BM_EventPostDispatch, plain build vs obs build — the
#     compiled-in-but-unattached cost (one null-check per dispatch).
#   * BM_FederationHealthFile/0 vs BM_Federation/0, both in the obs
#     build — the same run with a health file, which is what attaches
#     the per-quantum shard telemetry without a scoped registry.  The
#     attached side also writes that JSON file once per run.  Pricing
#     it in the *same binary* isolates the telemetry instead of folding
#     in every other compiled-in obs hook on the sim path.
#
# Both comparisons run as interleaved A/B rounds with the order
# alternating per round, and the gate statistic is the MEDIAN of the
# per-round paired ratios: sustained-load hosts slow down monotonically,
# so a fixed order (or a min taken across rounds sampled at different
# host speeds) systematically taxes one side; a within-round ratio
# cancels the drift and the median over alternating orders cancels the
# residual position bias (attached-profile cost is reported by
# BM_EventPostDispatchProfiled in bench_perf_kernel, not gated here).
#
# Usage: scripts/check_perf.sh [--update-baseline] [build-dir] [obs-build-dir]
#   (default build dirs: build-perf, build-perf-obs)
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE=0
if [[ "${1:-}" == "--update-baseline" ]]; then
    UPDATE=1
    shift
fi
BUILD_DIR="${1:-build-perf}"
OBS_BUILD_DIR="${2:-build-perf-obs}"
BASELINE="scripts/perf_baseline.json"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_perf_kernel >/dev/null
cmake -B "$OBS_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DWLANPS_OBS=ON >/dev/null
cmake --build "$OBS_BUILD_DIR" -j "$(nproc)" --target bench_perf_kernel >/dev/null

RESULT_JSON="$BUILD_DIR/check_perf_result.json"
"./$BUILD_DIR/bench/bench_perf_kernel" \
    --benchmark_filter='^BM_EventPostDispatch$|^BM_PerTableLookup(Batch)?$|^BM_Federation/[04]/' \
    --benchmark_repetitions=7 \
    --benchmark_format=json >"$RESULT_JSON"

# Interleaved A/B rounds for the obs-overhead comparison: alternate the
# two binaries so both sample the same stretch of host conditions.
OBS_CMP_DIR="$BUILD_DIR/obs_cmp"
rm -rf "$OBS_CMP_DIR"
mkdir -p "$OBS_CMP_DIR"
ab_dispatch_plain() {
    "./$BUILD_DIR/bench/bench_perf_kernel" \
        --benchmark_filter='^BM_EventPostDispatch$' \
        --benchmark_repetitions=2 \
        --benchmark_format=json >"$OBS_CMP_DIR/plain_$1.json"
}
ab_dispatch_obs() {
    "./$OBS_BUILD_DIR/bench/bench_perf_kernel" \
        --benchmark_filter='^BM_EventPostDispatch$' \
        --benchmark_repetitions=2 \
        --benchmark_format=json >"$OBS_CMP_DIR/obs_$1.json"
}
ab_telemetry_off() {
    "./$OBS_BUILD_DIR/bench/bench_perf_kernel" \
        --benchmark_filter='^BM_Federation/0/' \
        --benchmark_repetitions=2 \
        --benchmark_format=json >"$OBS_CMP_DIR/tel_off_$1.json"
}
ab_telemetry_on() {
    "./$OBS_BUILD_DIR/bench/bench_perf_kernel" \
        --benchmark_filter='^BM_FederationHealthFile/0/' \
        --benchmark_repetitions=2 \
        --benchmark_format=json >"$OBS_CMP_DIR/tel_on_$1.json"
}
for round in 1 2 3 4; do
    if (( round % 2 )); then
        ab_dispatch_plain "$round"; ab_dispatch_obs "$round"
        ab_telemetry_off "$round"; ab_telemetry_on "$round"
    else
        ab_dispatch_obs "$round"; ab_dispatch_plain "$round"
        ab_telemetry_on "$round"; ab_telemetry_off "$round"
    fi
done

python3 - "$RESULT_JSON" "$OBS_CMP_DIR" "$BASELINE" "$UPDATE" "$(nproc)" <<'PY'
import glob
import json
import os
import sys

result_json, obs_cmp_dir, baseline_path = sys.argv[1], sys.argv[2], sys.argv[3]
update = sys.argv[4] == "1"
cores = int(sys.argv[5])

GATED = [
    "BM_EventPostDispatch",
    "BM_PerTableLookup",
    "BM_PerTableLookupBatch",
    "BM_Federation/0/real_time",
]
BUDGET = 1.05  # 5% regression budget per gated benchmark
SPEEDUP_TARGET = 2.5  # BM_Federation 4-thread wall-clock vs inline
SPEEDUP_MIN_CORES = 4


def mins(path, field):
    # Min across repetitions: a benchmark can only run *slower* than its
    # true cost, never faster, so the min filters host noise that medians
    # let through on busy single-core containers.
    with open(path) as f:
        result = json.load(f)
    out = {}
    for b in result["benchmarks"]:
        if b.get("run_type") != "iteration":
            continue
        name = b["name"]
        out[name] = min(out.get(name, float("inf")), b[field])
    return out


cpu = mins(result_json, "cpu_time")
real = mins(result_json, "real_time")


def paired_ratio_median(prefix_num, prefix_den, num_name, den_name, field):
    # One ratio per A/B round (the pair ran adjacent in time, so host
    # drift cancels within it), median across rounds (alternating order
    # cancels the residual position bias).
    ratios = []
    for den_path in sorted(glob.glob(os.path.join(obs_cmp_dir, prefix_den + "_*.json"))):
        num_path = den_path.replace(prefix_den + "_", prefix_num + "_")
        ratios.append(mins(num_path, field)[num_name] / mins(den_path, field)[den_name])
    ratios.sort()
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return (ratios[mid - 1] + ratios[mid]) / 2.0


obs_dispatch_ratio = paired_ratio_median(
    "obs", "plain", "BM_EventPostDispatch", "BM_EventPostDispatch", "cpu_time")
# Attached-telemetry overhead: same obs binary, the federation run with
# and without a health file, so the delta is the per-quantum shard
# telemetry plus the one JSON write per run, nothing else.
telemetry_ratio = paired_ratio_median(
    "tel_on", "tel_off", "BM_FederationHealthFile/0/real_time",
    "BM_Federation/0/real_time", "real_time")

if update:
    with open(baseline_path, "w") as f:
        json.dump({name: {"cpu_ns": cpu[name]} for name in GATED}, f, indent=2)
        f.write("\n")
    for name in GATED:
        print(f"baseline updated: {name} = {cpu[name]:.0f} ns CPU (min of 7 reps)")

ok = True

if not update:
    with open(baseline_path) as f:
        baseline = json.load(f)
    for name in GATED:
        if name not in baseline:
            print(f"WARN: {name} missing from {baseline_path}; "
                  f"run --update-baseline (measured {cpu[name]:.0f} ns CPU)")
            continue
        base = baseline[name]["cpu_ns"]
        limit = base * BUDGET
        print(f"{name}: {cpu[name]:.0f} ns CPU "
              f"(baseline {base:.0f} ns, limit {limit:.0f} ns)")
        if cpu[name] > limit:
            print(f"FAIL: {name} regressed more than "
                  f"{(BUDGET - 1) * 100:.0f}% against the baseline")
            ok = False

# Sharded wall-clock speedup: only a hard gate when the host can actually
# run 4 workers concurrently.  On smaller hosts the gate is *disarmed*:
# the ratio is still printed, and the result JSON records the gate state
# so downstream tooling (bench_diff.py, CI artifacts) can tell a genuine
# pass from a host that simply could not run the comparison.
inline_ns = real["BM_Federation/0/real_time"]
par_ns = real["BM_Federation/4/real_time"]
speedup = inline_ns / par_ns if par_ns > 0 else 0.0
print(f"BM_Federation wall clock: inline {inline_ns:.0f} ns, "
      f"4 threads {par_ns:.0f} ns -> speedup {speedup:.2f}x "
      f"({cores} core(s) on this host)")
if cores >= SPEEDUP_MIN_CORES:
    speedup_gate = "armed"
    if speedup < SPEEDUP_TARGET:
        print(f"FAIL: sharded speedup {speedup:.2f}x below the "
              f"{SPEEDUP_TARGET}x target on a {cores}-core host")
        ok = False
else:
    speedup_gate = "disarmed"
    print(f"SKIPPED (cores={cores})")
    print(f"NOTE: speedup gate disarmed (needs >= {SPEEDUP_MIN_CORES} cores); "
          f"barrier-quantum workers cannot overlap on this host")

# Record the gate state alongside the raw benchmark output so the result
# JSON is self-describing.
with open(result_json) as f:
    recorded = json.load(f)
recorded["speedup_gate"] = speedup_gate
recorded["speedup_measured"] = speedup
with open(result_json, "w") as f:
    json.dump(recorded, f, indent=2)
    f.write("\n")

# Obs gates: both sides of each ratio come from the same interleaved
# A/B round, so the 5% budget compares like-for-like host conditions.
print(f"BM_EventPostDispatch [WLANPS_OBS=ON, no profile attached]: "
      f"{(obs_dispatch_ratio - 1) * 100:+.1f}% vs plain "
      f"(median paired ratio, limit +5%)")
if obs_dispatch_ratio > 1.05:
    print("FAIL: compiled-in observability costs more than 5% on the dispatch path")
    ok = False

print(f"BM_Federation/0 [WLANPS_OBS=ON, telemetry attached vs detached]: "
      f"{(telemetry_ratio - 1) * 100:+.1f}% "
      f"(median paired ratio, limit +5%)")
if telemetry_ratio > 1.05:
    print("FAIL: per-quantum shard telemetry costs more than 5% on the sharded run")
    ok = False

if not ok:
    sys.exit(1)
print("perf check passed")
PY
