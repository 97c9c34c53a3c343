#!/usr/bin/env python3
"""Parse wlanps bench output into CSV files (and plots, if matplotlib is
available).

Usage:
    for b in build/bench/*; do $b; done | tee bench_output.txt
    python3 scripts/plot_results.py bench_output.txt --outdir results/

Every `=== ID — title ===` section becomes results/<id>.txt; sections whose
body contains an aligned table additionally get results/<id>.csv.  With
matplotlib installed, the Figure 2 bar chart and the AB3 loss sweep are
rendered as PNGs.

With --metrics metrics.json (the obs snapshot written by
bench_fig2_ipaq_power via WLANPS_METRICS_OUT, or by hotspot_cli
--obs-metrics), the per-client energy-attribution ledger is rendered as
a stacked per-cause bar chart (energy_breakdown.png) and dumped to
energy_breakdown.csv.

With --ab14 ab14.json (the policy-ablation grid written by
bench_ab14_policy_ablation via WLANPS_AB14_OUT), the per-cause energy
breakdown is rendered grouped by power policy (policy_ablation.png +
.csv): one stacked bar per policy x fault-intensity cell, so the
idle_listen -> nav_sleep reallocation of micro_nap is visible next to
cam/psm/pamas.
"""

import argparse
import csv
import json
import os
import re
import sys

# Stable stacking order, matching the obs::EnergyCause taxonomy.
ENERGY_CAUSES = [
    "idle_listen",
    "beacon_wake",
    "burst_rx",
    "retransmission",
    "mode_switch",
    "tx",
    "nav_sleep",
]


def split_sections(text):
    """Yield (section_id, title, body) for each '=== ID — title ===' block."""
    pattern = re.compile(r"^=== (\S+) — (.*?) ===$", re.MULTILINE)
    matches = list(pattern.finditer(text))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        yield m.group(1), m.group(2), text[m.start():end].strip()


def table_rows(body):
    """Best-effort extraction of whitespace-aligned table rows."""
    rows = []
    for line in body.splitlines():
        if line.startswith(("===", "  ")) or not line.strip():
            continue
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) >= 3:
            rows.append(cells)
    return rows


def write_outputs(sections, outdir):
    os.makedirs(outdir, exist_ok=True)
    for section_id, title, body in sections:
        slug = section_id.lower()
        with open(os.path.join(outdir, f"{slug}.txt"), "w") as f:
            f.write(body + "\n")
        rows = table_rows(body)
        if rows:
            with open(os.path.join(outdir, f"{slug}.csv"), "w", newline="") as f:
                csv.writer(f).writerows(rows)
        print(f"{section_id}: {title} -> {slug}.txt"
              + (f", {slug}.csv ({len(rows)} rows)" if rows else ""))


def try_plots(sections, outdir):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping plots", file=sys.stderr)
        return

    by_id = {sid: body for sid, _, body in sections}

    # Figure 2: configuration vs WNIC power bar chart.
    if "FIG2" in by_id:
        labels, watts = [], []
        for cells in table_rows(by_id["FIG2"]):
            m = re.match(r"([\d.]+)(m?)W", cells[1]) if len(cells) > 1 else None
            if m and not cells[0].startswith(("configuration", "client", "C")):
                labels.append(cells[0])
                watts.append(float(m.group(1)) * (1e-3 if m.group(2) else 1.0))
        if labels:
            fig, ax = plt.subplots(figsize=(6, 3.2))
            ax.bar(labels, watts)
            ax.set_ylabel("mean WNIC power [W]")
            ax.set_title("Figure 2 — average WNIC power, 3 MP3 clients")
            fig.autofmt_xdate(rotation=20)
            fig.tight_layout()
            fig.savefig(os.path.join(outdir, "fig2.png"), dpi=150)
            print("wrote fig2.png")

    # AB3: loss sweep line chart.
    if "AB3" in by_id:
        loss, reno, split, snoop = [], [], [], []
        for cells in table_rows(by_id["AB3"]):
            try:
                l = float(cells[0])
            except ValueError:
                continue
            nums = re.findall(r"([\d.]+) Mb/s", " ".join(cells))
            if len(nums) >= 3:
                loss.append(l)
                reno.append(float(nums[0]))
                split.append(float(nums[1]))
                snoop.append(float(nums[2]))
        if loss:
            fig, ax = plt.subplots(figsize=(6, 3.2))
            ax.plot(loss, reno, marker="o", label="end-to-end TCP")
            ax.plot(loss, split, marker="s", label="split connection")
            ax.plot(loss, snoop, marker="^", label="snoop")
            ax.set_xlabel("wireless loss probability")
            ax.set_ylabel("throughput [Mb/s]")
            ax.set_title("AB3 — TCP over a lossy wireless hop")
            ax.legend()
            fig.tight_layout()
            fig.savefig(os.path.join(outdir, "ab3.png"), dpi=150)
            print("wrote ab3.png")


def energy_breakdown(metrics_path, outdir):
    """CSV + stacked bar chart of the per-client energy ledger."""
    with open(metrics_path) as f:
        doc = json.load(f)
    ledger = doc.get("energy_ledger")
    if not ledger:
        print(f"{metrics_path} has no energy_ledger section (run with the "
              "ledger scoped, e.g. hotspot_cli --obs-metrics)", file=sys.stderr)
        return
    clients = ledger.get("clients", {})
    if not clients:
        print("energy ledger is empty; nothing to plot", file=sys.stderr)
        return
    ids = sorted(clients, key=int)

    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "energy_breakdown.csv")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["client", "total_j"] + ENERGY_CAUSES)
        for cid in ids:
            row = clients[cid]
            writer.writerow([cid, row.get("total_j", 0.0)]
                            + [row.get(c, 0.0) for c in ENERGY_CAUSES])
    print(f"wrote energy_breakdown.csv ({len(ids)} clients)")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping energy plot", file=sys.stderr)
        return
    fig, ax = plt.subplots(figsize=(6, 3.6))
    bottoms = [0.0] * len(ids)
    for cause in ENERGY_CAUSES:
        values = [clients[cid].get(cause, 0.0) for cid in ids]
        ax.bar([f"C{cid}" for cid in ids], values, bottom=bottoms, label=cause)
        bottoms = [b + v for b, v in zip(bottoms, values)]
    ax.set_ylabel("WNIC energy [J]")
    ax.set_title("Per-client energy by cause (attribution ledger)")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(os.path.join(outdir, "energy_breakdown.png"), dpi=150)
    print("wrote energy_breakdown.png")


def policy_ablation(ab14_path, outdir):
    """Per-cause energy breakdown grouped by power policy (AB14 grid)."""
    with open(ab14_path) as f:
        doc = json.load(f)
    cells = doc.get("cells", [])
    if not cells:
        print(f"{ab14_path} has no policy-ablation cells (run "
              "bench_ab14_policy_ablation with WLANPS_AB14_OUT set)",
              file=sys.stderr)
        return

    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "policy_ablation.csv")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["policy", "faults", "wnic_w", "qos_min",
                         "faults_injected"] + ENERGY_CAUSES)
        for cell in cells:
            causes = cell.get("causes", {})
            writer.writerow([cell.get("policy"), cell.get("faults"),
                             cell.get("wnic_w", 0.0), cell.get("qos_min", 0.0),
                             cell.get("faults_injected", 0)]
                            + [causes.get(c, 0.0) for c in ENERGY_CAUSES])
    print(f"wrote policy_ablation.csv ({len(cells)} cells)")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping policy-ablation plot",
              file=sys.stderr)
        return
    # Group cells by policy so each policy's fault axis sits together.
    policies = []
    for cell in cells:
        if cell.get("policy") not in policies:
            policies.append(cell.get("policy"))
    labels = [f"{c.get('policy')}\n{c.get('faults')}" for c in cells]
    fig, ax = plt.subplots(figsize=(max(6.0, 0.9 * len(cells)), 3.8))
    bottoms = [0.0] * len(cells)
    for cause in ENERGY_CAUSES:
        values = [c.get("causes", {}).get(cause, 0.0) for c in cells]
        if not any(values):
            continue
        ax.bar(labels, values, bottom=bottoms, label=cause)
        bottoms = [b + v for b, v in zip(bottoms, values)]
    ax.set_ylabel("WNIC energy [J]")
    ax.set_title("AB14 — energy by cause, per power policy x fault intensity")
    ax.legend(fontsize=8)
    plt.setp(ax.get_xticklabels(), fontsize=7)
    fig.tight_layout()
    fig.savefig(os.path.join(outdir, "policy_ablation.png"), dpi=150)
    print("wrote policy_ablation.png")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("input", nargs="?", help="bench output transcript")
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--metrics", metavar="JSON",
                        help="obs metrics snapshot; plots the per-client "
                             "energy ledger as a stacked bar chart")
    parser.add_argument("--ab14", metavar="JSON",
                        help="policy-ablation grid (the WLANPS_AB14_OUT file); "
                             "plots the per-cause breakdown grouped by power "
                             "policy")
    args = parser.parse_args()
    if args.metrics:
        energy_breakdown(args.metrics, args.outdir)
    if args.ab14:
        policy_ablation(args.ab14, args.outdir)
    if args.input is None:
        if not args.metrics and not args.ab14:
            print("nothing to do: pass a bench transcript, --metrics, "
                  "and/or --ab14", file=sys.stderr)
            return 1
        return 0
    with open(args.input) as f:
        text = f.read()
    sections = list(split_sections(text))
    if not sections:
        print("no bench sections found", file=sys.stderr)
        return 1
    write_outputs(sections, args.outdir)
    try_plots(sections, args.outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
