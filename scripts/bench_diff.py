#!/usr/bin/env python3
"""Compare two benchmark/metrics JSON files metric by metric.

Works on any pair of files sharing the repo's JSON shapes: metrics.json
snapshots from the obs exporter (counters, gauges, histograms, energy
ledger), health reports (hotspot_cli --obs-health) and bench grids such
as bench_ab12_sensitivity's WLANPS_GRID_OUT.

Either side may also be a binary WPSM metrics stream written by a
federation run (src/obs/metrics_stream.hpp, magic "WPSM"): the file is
sniffed by magic and decoded into the same flat numeric keys —
summary.<key> for end-of-run scalars, series.<name>.{first,last,min,max,
mean,count} for each registered time series, and client[<id>].<field>
for the stride-sampled per-client records.

Both documents are flattened to dot-separated paths of numeric leaves;
every path present in both files is reported with its old value, new
value, and relative delta.

By default the diff is informational and always exits 0.  With
--threshold PCT the exit status turns into a gate: any shared metric
whose magnitude changed by more than PCT percent fails the run (exit 1).

Usage:
  scripts/bench_diff.py OLD.json NEW.json [--threshold PCT] [--top N]
"""

import argparse
import json
import struct
import sys


def flatten(node, prefix=""):
    """Yield (dot.path, value) for every numeric leaf under node."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from flatten(value, path)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from flatten(value, f"{prefix}[{index}]")
    elif isinstance(node, bool):
        return  # bool is an int in Python; never a metric
    elif isinstance(node, (int, float)):
        yield prefix, float(node)


WPSM_MAGIC = b"WPSM"


def decode_wpsm(data, path):
    """Decode a WPSM binary metrics stream into a flat {key: float} dict.

    Frame grammar (little-endian, see src/obs/metrics_stream.hpp):
      u8 type, u32 payload_len, payload
    Unknown frame types are skipped by length, so newer writers stay
    readable.
    """
    version = struct.unpack_from("<I", data, 4)[0]
    if version != 1:
        raise ValueError(f"{path}: unsupported WPSM version {version}")
    series_names = {}
    series_values = {}  # id -> [values in file order]
    metrics = {}
    off = 8
    while off < len(data):
        if off + 5 > len(data):
            raise ValueError(f"{path}: truncated WPSM frame header at {off}")
        ftype, length = struct.unpack_from("<BI", data, off)
        off += 5
        if off + length > len(data):
            raise ValueError(f"{path}: truncated WPSM frame payload at {off}")
        payload = data[off:off + length]
        off += length
        if ftype == 0:  # series-def: u32 id, u16 name_len, name
            sid, name_len = struct.unpack_from("<IH", payload)
            series_names[sid] = payload[6:6 + name_len].decode()
        elif ftype == 1:  # sample: u32 id, i64 t_ns, f64 value
            sid, _t_ns, value = struct.unpack_from("<Iqd", payload)
            series_values.setdefault(sid, []).append(value)
        elif ftype == 2:  # summary: u16 key_len, key, f64 value
            key_len = struct.unpack_from("<H", payload)[0]
            key = payload[2:2 + key_len].decode()
            value = struct.unpack_from("<d", payload, 2 + key_len)[0]
            metrics[f"summary.{key}"] = float(value)
        elif ftype == 3:  # client record
            cid, energy_j, qos, completed, shed = struct.unpack_from(
                "<IffII", payload)
            metrics[f"client[{cid}].energy_j"] = float(energy_j)
            metrics[f"client[{cid}].qos"] = float(qos)
            metrics[f"client[{cid}].bursts_completed"] = float(completed)
            metrics[f"client[{cid}].bursts_shed"] = float(shed)
        # unknown frame types: skipped by length
    for sid, values in series_values.items():
        name = series_names.get(sid, f"series_{sid}")
        metrics[f"series.{name}.first"] = values[0]
        metrics[f"series.{name}.last"] = values[-1]
        metrics[f"series.{name}.min"] = min(values)
        metrics[f"series.{name}.max"] = max(values)
        metrics[f"series.{name}.mean"] = sum(values) / len(values)
        metrics[f"series.{name}.count"] = float(len(values))
    return metrics


def load_metrics(path):
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] == WPSM_MAGIC:
        return decode_wpsm(raw, path)
    return dict(flatten(json.loads(raw.decode())))


def relative_delta(old, new):
    if old == new:
        return 0.0
    if old == 0.0:
        return float("inf")
    return (new - old) / abs(old)


def main():
    parser = argparse.ArgumentParser(
        description="Per-metric diff of two benchmark/metrics JSON files.")
    parser.add_argument("old", help="baseline JSON file")
    parser.add_argument("new", help="candidate JSON file")
    parser.add_argument("--threshold", type=float, default=None, metavar="PCT",
                        help="fail (exit 1) if any metric moved more than PCT%%")
    parser.add_argument("--top", type=int, default=25, metavar="N",
                        help="show the N largest movers (default 25; 0 = all)")
    args = parser.parse_args()

    old = load_metrics(args.old)
    new = load_metrics(args.new)

    shared = sorted(set(old) & set(new))
    if not shared:
        print("bench_diff: no shared numeric metrics between the two files",
              file=sys.stderr)
        return 2

    rows = [(key, old[key], new[key], relative_delta(old[key], new[key]))
            for key in shared]
    rows.sort(key=lambda r: (abs(r[3]) != float("inf"), -abs(r[3]), r[0]))

    shown = rows if args.top == 0 else rows[:args.top]
    width = max(len(r[0]) for r in shown) if shown else 0
    print(f"{'metric':<{width}}  {'old':>14}  {'new':>14}  {'delta':>9}")
    for key, old_v, new_v, delta in shown:
        pct = "new-vs-0" if delta == float("inf") else f"{100.0 * delta:+8.2f}%"
        print(f"{key:<{width}}  {old_v:>14.6g}  {new_v:>14.6g}  {pct:>9}")

    changed = sum(1 for r in rows if r[3] != 0.0)
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    print(f"\n{len(shared)} shared metrics, {changed} changed, "
          f"{len(only_old)} only in {args.old}, {len(only_new)} only in {args.new}")

    if args.threshold is not None:
        limit = args.threshold / 100.0
        offenders = [r for r in rows
                     if abs(r[3]) > limit or r[3] == float("inf")]
        if offenders:
            print(f"\nFAIL: {len(offenders)} metric(s) moved more than "
                  f"{args.threshold}%:", file=sys.stderr)
            for key, old_v, new_v, delta in offenders[:10]:
                pct = "inf" if delta == float("inf") else f"{100.0 * delta:+.2f}%"
                print(f"  {key}: {old_v:.6g} -> {new_v:.6g} ({pct})",
                      file=sys.stderr)
            return 1
        print(f"OK: every shared metric within {args.threshold}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
