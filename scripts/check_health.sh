#!/usr/bin/env bash
# Kernel health telemetry gate: watchdogs catch seeded invariant
# corruption, clean runs stay silent, and the health report is
# deterministic and well-formed.
#
#   1. obs_health_test + obs_stream_test (the focused ctest binaries):
#      seeded fed.conservation corruption is reported within one sweep
#      with a flight dump; clean federation runs produce zero reports;
#      health JSON and the metrics snapshot are bit-identical across
#      worker-thread counts; the WPSM writer reproduces the checked-in
#      golden fixture byte for byte.
#   2. Golden decode: scripts/bench_diff.py must decode
#      tests/data/wpsm_golden.bin to exactly the flat keys pinned in
#      tests/data/wpsm_golden.json (threshold 0 -> any drift fails).
#   3. CLI smoke: a clean federation run with --obs-health exits 0
#      (exit 3 = watchdog violations), its health JSON carries the
#      required schema keys with zero violations, and re-running at
#      --threads 2 reproduces the file byte for byte.
#
# Everything here is deterministic — a trip is a real invariant,
# attribution, or encoding bug, not runner noise.
#
# Usage: scripts/check_health.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target obs_health_test obs_stream_test hotspot_cli >/dev/null

echo "--- health + watchdog unit gates ---"
"./$BUILD_DIR/tests/obs_health_test"
"./$BUILD_DIR/tests/obs_stream_test"

echo "--- WPSM golden decode ---"
python3 scripts/bench_diff.py \
    tests/data/wpsm_golden.json tests/data/wpsm_golden.bin \
    --threshold 0 --top 0
echo "golden stream decodes to the pinned flat keys"

echo "--- CLI health smoke (clean federation run) ---"
HEALTH_DIR="$BUILD_DIR/health_smoke"
rm -rf "$HEALTH_DIR"
mkdir -p "$HEALTH_DIR"
run_fed() {
    "./$BUILD_DIR/examples/hotspot_cli" \
        --config federation --aps 8 --shards 4 --threads "$1" \
        --clients 64 --duration 120 --seed 11 \
        --obs-health "$2" >/dev/null
}
run_fed 0 "$HEALTH_DIR/health_t0.json"
run_fed 2 "$HEALTH_DIR/health_t2.json"

python3 - "$HEALTH_DIR/health_t0.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    health = json.load(f)

REQUIRED = ["scope", "shards", "quanta", "idle_jumps", "events",
            "imbalance_index", "skew", "per_shard", "per_cell",
            "population", "watchdog"]
missing = [k for k in REQUIRED if k not in health]
assert not missing, f"health JSON missing keys: {missing}"
assert health["scope"] == "federation", health["scope"]
assert health["watchdog"]["violations"] == 0, health["watchdog"]
assert health["watchdog"]["sweeps"] > 0, "watchdog never swept"
assert health["population"]["conserved"] is True
assert len(health["per_shard"]) == health["shards"]
assert sum(s["events"] for s in health["per_shard"]) == health["events"]
# Wall-clock timing must not leak into the deterministic default export.
assert "timing" not in health, "timing section leaked into default JSON"
print(f"schema ok: {health['shards']} shards, {health['events']} events, "
      f"{health['watchdog']['sweeps']} watchdog sweeps, 0 violations")
PY

if ! cmp -s "$HEALTH_DIR/health_t0.json" "$HEALTH_DIR/health_t2.json"; then
    echo "FAIL: health JSON differs between --threads 0 and --threads 2"
    diff "$HEALTH_DIR/health_t0.json" "$HEALTH_DIR/health_t2.json" || true
    exit 1
fi
echo "health JSON bit-identical across thread counts"

echo "health check passed"
