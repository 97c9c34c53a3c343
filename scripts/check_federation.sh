#!/usr/bin/env bash
# Federation-scale gate, in two stages.
#
# Stage 1: a 10⁴-client, 16-AP federation run on the strict-barrier
# sharded kernel must be
#
#   1. deterministic — the same seed produces bit-identical population
#      fingerprints on repeated runs, and
#   2. thread-invariant — the 2-worker-thread run matches the inline
#      (0-thread) sequential reference, the strict policy's core promise
#      at population scale, and
#   3. bounded — peak RSS is recorded via /usr/bin/time -v so a slab or
#      mailbox memory blow-up shows in the job log (reported, not gated:
#      allocator and libc differences move absolute RSS between hosts).
#
# Stage 2: the 10⁵-client city (perfbench's fed_city shape: 3125 APs on 4
# shards, roaming, defer admission, an MMPP flash crowd, 120 s), inline
# and at 2 worker threads.  Both runs must print the pinned fingerprint,
# stay within a peak-RSS budget of 1.25x the ~80 MiB the city took on a
# 4-core x86-64 Linux host, and finish under a wall-clock ceiling loose
# enough that only an asymptotic regression trips it (the inline run
# takes ~1–2 s on that host).
#
# Usage: scripts/check_federation.sh [build-dir] [clients]
#   (defaults: build-fed, 10000; clients sizes stage 1 only)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-fed}"
CLIENTS="${2:-10000}"
SEED=42

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target hotspot_cli >/dev/null

CLI="./$BUILD_DIR/examples/hotspot_cli"
OUT_DIR="$BUILD_DIR/fed_smoke"
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

run_once() { # <threads> <tag>
    local threads="$1" tag="$2"
    local args=(--federation --aps 16 --shards 16 --threads "$threads"
                --clients "$CLIENTS" --duration 120 --seed "$SEED"
                --roaming 45 --admission defer --capacity 900
                --arrivals 2 --flash 40)
    if [[ -x /usr/bin/time ]]; then
        /usr/bin/time -v "$CLI" "${args[@]}" \
            >"$OUT_DIR/$tag.out" 2>"$OUT_DIR/$tag.time"
    else
        "$CLI" "${args[@]}" >"$OUT_DIR/$tag.out" 2>/dev/null
        echo "note: /usr/bin/time not available; RSS not recorded" \
            >"$OUT_DIR/$tag.time"
    fi
}

fingerprint_of() {
    grep -o 'fingerprint [0-9a-f]\{16\}' "$1" | awk '{print $2}'
}

echo "federation smoke: $CLIENTS clients, 16 APs, seed $SEED"
run_once 2 t2_a
run_once 2 t2_b
run_once 0 t0

FP_A="$(fingerprint_of "$OUT_DIR/t2_a.out")"
FP_B="$(fingerprint_of "$OUT_DIR/t2_b.out")"
FP_0="$(fingerprint_of "$OUT_DIR/t0.out")"
echo "fingerprints: 2-thread run A $FP_A, run B $FP_B, inline $FP_0"

if [[ -z "$FP_A" || "$FP_A" != "$FP_B" ]]; then
    echo "FAIL: same-seed 2-thread runs diverged ($FP_A vs $FP_B)" >&2
    exit 1
fi
if [[ "$FP_A" != "$FP_0" ]]; then
    echo "FAIL: 2-thread run diverged from the inline reference" \
         "($FP_A vs $FP_0)" >&2
    exit 1
fi

if ! grep -q 'conserved' "$OUT_DIR/t2_a.out" \
   || grep -q 'NOT CONSERVED' "$OUT_DIR/t2_a.out"; then
    echo "FAIL: burst conservation (admitted = completed + shed) violated" >&2
    exit 1
fi

for tag in t2_a t0; do
    rss_kb="$(grep -o 'Maximum resident set size (kbytes): [0-9]*' \
                   "$OUT_DIR/$tag.time" | grep -o '[0-9]*$' || true)"
    if [[ -n "$rss_kb" ]]; then
        echo "peak RSS ($tag): $((rss_kb / 1024)) MiB ($rss_kb kB)"
    fi
done

CITY_FINGERPRINT=af164be0d1574739
CITY_RSS_BUDGET_MIB=100
CITY_WALL_CEILING_S=10

# One city run; prints "<fingerprint> <wall s> <peak RSS MiB>".  Not every
# host has /usr/bin/time, so the child's peak RSS comes from
# getrusage(RUSAGE_CHILDREN) in a fresh interpreter per run.
city_run() { # <threads>
    python3 - "$CLI" "$1" <<'PY'
import re, resource, subprocess, sys, time
cli, threads = sys.argv[1], sys.argv[2]
args = [cli, "--federation", "--aps", "3125", "--shards", "4", "--threads", threads,
        "--clients", "100000", "--duration", "120", "--seed", "7",
        "--roaming", "45", "--admission", "defer", "--capacity", "36",
        "--arrivals", "0.11", "--flash", "0.35"]
t0 = time.monotonic()
proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
wall = time.monotonic() - t0
rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
fp = re.search(r"fingerprint ([0-9a-f]{16})", proc.stdout)
print(fp.group(1) if proc.returncode == 0 and fp else "none", "%.2f" % wall, "%.1f" % rss_mib)
PY
}

echo "federation city: 100000 clients, 3125 APs, seed 7"
for threads in 0 2; do
    read -r fp wall rss <<<"$(city_run "$threads")"
    echo "city ($threads threads): fingerprint $fp, wall $wall s, peak RSS $rss MiB"
    if [[ "$fp" != "$CITY_FINGERPRINT" ]]; then
        echo "FAIL: city fingerprint $fp != pinned $CITY_FINGERPRINT" >&2
        exit 1
    fi
    if awk -v v="$rss" -v b="$CITY_RSS_BUDGET_MIB" 'BEGIN { exit !(v > b) }'; then
        echo "FAIL: city peak RSS $rss MiB exceeds the $CITY_RSS_BUDGET_MIB MiB budget" >&2
        exit 1
    fi
    if awk -v v="$wall" -v b="$CITY_WALL_CEILING_S" 'BEGIN { exit !(v > b) }'; then
        echo "FAIL: city wall time $wall s exceeds the $CITY_WALL_CEILING_S s ceiling" >&2
        exit 1
    fi
done

echo "federation smoke passed"
