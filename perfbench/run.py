#!/usr/bin/env python3
"""End-to-end benchmark of the wlanps simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig2_ipaq --seed 7 --seconds 20 --trace 0

Builds perfbench/ twice under .bench_build/ (a plain Release build and a
WLANPS_OBS=ON Release build of the same sources), runs one workload and
prints, as the last line of stdout, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 runs the plain build for the whole window and reports the
end-to-end metrics of BENCHMARK.json.  --trace 1 reports its per-layer
metrics: half the window on the plain build and half on the traced build
(their throughput ratio is obs.overhead_pct), then one traced iteration of
each other workload that owns layers this one does not exercise.

Earlier stdout lines carry the host/build record and one digest per
iteration of every simulated output; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig2_ipaq", "policy_sweep", "fed_city", "fed_city_sharded")
# Probe order for --trace 1: the workloads that own layers another
# workload does not exercise (Hotspot/MAC/BT; policy/exp/fault; shard).
PROBES = ("fig2_ipaq", "policy_sweep", "fed_city_sharded")
# Caps, below the 900 s the first run in a checkout may take (it builds)
# and the 180 s any later run may take.
BUILD_DEADLINE_S = 840.0
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(variant, obs_on, deadline):
    """Configure (once) and build one variant; return the binary path."""
    build_dir = os.path.join(BUILD_ROOT, variant)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
               "-DWLANPS_OBS=" + ("ON" if obs_on else "OFF")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, deadline)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_checked(["cmake", "--build", build_dir, "-j", jobs], deadline)
    return os.path.join(build_dir, "wlanps_perfbench")


def run_checked(cmd, deadline):
    """Run a build step with its output on stderr; raise on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("build step timed out: " + " ".join(cmd)) from exc
    if proc.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def run_bench(binary, workload, seed, deadline, seconds=None, iterations=None,
              layers=False, inject=None):
    """Run the benchmark binary once; return (result dict, build dict, digest lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    cmd += ["--iterations", str(iterations)] if iterations else ["--seconds", repr(seconds)]
    if layers:
        cmd.append("--layers")
    if inject:
        cmd += ["--inject-failure", inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("benchmark binary timed out: " + " ".join(cmd)) from exc
    result = build_info = None
    digests = []
    for line in proc.stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "result":
            result = json.loads(rest)
        elif tag == "build":
            build_info = json.loads(rest)
        elif tag == "digest":
            digests.append(line)
    if proc.returncode != 0 or result is None:
        raise BenchError("benchmark binary failed (exit %d): %s"
                         % (proc.returncode, " ".join(cmd)))
    return result, build_info, digests


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds (src/ and perfbench/)."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def lines_of_code():
    """Source lines per src/ module (loc.<module>)."""
    src = os.path.join(ROOT, "src")
    out = {}
    for module in sorted(os.listdir(src)):
        path = os.path.join(src, module)
        if not os.path.isdir(path):
            continue
        total = 0
        for name in os.listdir(path):
            if name.endswith((".cpp", ".hpp")):
                with open(os.path.join(path, name), "rb") as f:
                    total += sum(1 for _ in f)
        out["loc." + module] = total
    return out


def end_to_end(result):
    timing = result["timing"]
    return {
        "client_s_per_s": timing["client_s_per_s"],
        "run_ms.p50": timing["run_ms_p50"],
        "setup_s": timing["setup_s"],
        "peak_rss_mb": timing["peak_rss_mb"],
    }


def per_layer(args, plain_bin, traced_bin, layer_names, deadline):
    """Per-layer values plus every run they came from."""
    half = args.seconds / 2.0
    plain, _, _ = run_bench(plain_bin, args.workload, args.seed, deadline, seconds=half,
                            inject=args.inject_failure)
    traced, build_info, digests = run_bench(traced_bin, args.workload, args.seed, deadline,
                                            seconds=half, layers=True,
                                            inject=args.inject_failure)
    runs = [plain, traced]
    values = dict(traced["layers"])
    values["obs.overhead_pct"] = 100.0 * (1.0 - traced["timing"]["client_s_per_s"]
                                          / plain["timing"]["client_s_per_s"])
    values.update(lines_of_code())
    for probe in PROBES:
        if probe == args.workload or all(name in values for name in layer_names):
            continue
        probed, _, _ = run_bench(traced_bin, probe, args.seed, deadline, iterations=1,
                                 layers=True)
        runs.append(probed)
        for name, value in probed["layers"].items():
            values.setdefault(name, value)
    return values, runs, build_info, digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure", default=None,
                        help="fail one output check on purpose (harness self-test)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        deadline = time.monotonic() + BUILD_DEADLINE_S
        plain_bin = build("plain", False, deadline)
        traced_bin = build("traced", True, deadline)
        deadline = time.monotonic() + RUN_DEADLINE_S
        if args.trace:
            values, runs, build_info, digests = per_layer(
                args, plain_bin, traced_bin, [m["name"] for m in declared], deadline)
        else:
            result, build_info, digests = run_bench(plain_bin, args.workload, args.seed,
                                                    deadline, seconds=args.seconds,
                                                    inject=args.inject_failure)
            values, runs = end_to_end(result), [result]
    except BenchError as exc:
        log("perfbench: " + str(exc))
        return 1

    for line in digests:
        print(line)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count(), "system": platform.platform()},
        "build": build_info,
        "commit": source_revision(),
        "threads": runs[0]["threads"],
        "iterations": runs[0]["iterations"],
        "timing": runs[0]["timing"],
        "simulated": runs[0]["simulated"],
        "failures": [f for r in runs for f in r["failures"]],
    }
    print("record " + json.dumps(record, sort_keys=True))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {}
    missing = []
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing:
        log("perfbench: no value for " + ", ".join(missing))
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
