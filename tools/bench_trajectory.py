#!/usr/bin/env python3
"""Print the committed perf trajectory: one table row per BENCH_*.json run.

    python3 tools/bench_trajectory.py [--dir DIR]

reads every BENCH_<label>.json in DIR (default: the repo root), orders them
by label, and prints, per workload, the end-to-end numbers of each
`--trace 0` run beside the largest layer its `--trace 1` twin named.
Standard library only. Exits nonzero when a file is malformed.

A BENCH file records the perfbench runs of one change, parent and change
side by side:

    {
      "label": "17",
      "change": "<one line: what the change did>",
      "host": "<the machine the runs shared>",
      "command": "python3 perfbench/run.py --workload W --seed 1 "
                 "--seconds 25 --trace T",
      "runs": [
        {"side": "parent" | "change", "workload": "<name>", "trace": 0 | 1,
         "provenance": {<perfbench's provenance line>},
         "notes": ["<perfbench's human-readable lines>", ...],
         "result": {<perfbench's last line: correct, attempted, failed,
                     metrics>}},
        ...
      ]
    }
"""

import argparse
import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (metric, column header, scale, format) of the end-to-end columns.
COLUMNS = (
    ("ingest_rate", "ingest/s", 1e-6, "{:.2f}M"),
    ("cold_epoch_rate", "cold/s", 1e-6, "{:.2f}M"),
    ("cycle_rate", "cycle/s", 1e-6, "{:.2f}M"),
    ("server_cpu_ns_per_report", "cpu ns", 1.0, "{:.0f}"),
    ("seal_ms", "seal ms", 1.0, "{:.3g}"),
    ("freshness_ms", "fresh ms", 1.0, "{:.3g}"),
    ("server_state_mb", "state MB", 1.0, "{:.1f}"),
)
SIDES = ("parent", "change")


def label_key(path):
    label = re.sub(r"^BENCH_|\.json$", "", os.path.basename(path))
    return (0, int(label), "") if label.isdigit() else (1, 0, label)


def largest_layer(run):
    """'name ns' from a traced run's notes, or '-'."""
    notes = run.get("notes", [])
    name = next((n.split(": ", 1)[1] for n in notes
                 if n.startswith("largest self time: ")), "")
    if not name:
        return "-"
    for note in notes:
        match = re.search(r"\b" + re.escape(name) + r"=([0-9.]+)", note)
        if match:
            return "{} {:.0f}".format(name, float(match.group(1)))
    return name


def load(path):
    with open(path) as f:
        bench = json.load(f)
    for key in ("label", "host", "command", "runs"):
        if key not in bench:
            raise ValueError("{}: missing '{}'".format(path, key))
    for run in bench["runs"]:
        for key in ("side", "workload", "trace", "result"):
            if key not in run:
                raise ValueError("{}: a run lacks '{}'".format(path, key))
        if run["side"] not in SIDES or run["trace"] not in (0, 1):
            raise ValueError("{}: bad side/trace in a run".format(path))
        if "metrics" not in run["result"]:
            raise ValueError("{}: a run's result lacks metrics".format(path))
    return bench


def rows(bench):
    untraced = {}
    traced = {}
    for run in bench["runs"]:
        key = (run["workload"], run["side"])
        (traced if run["trace"] else untraced)[key] = run
    for workload, side in sorted(untraced,
                                 key=lambda k: (k[0], SIDES.index(k[1]))):
        run = untraced[(workload, side)]
        metrics = run["result"]["metrics"]
        cells = [str(bench["label"]), side, workload]
        for name, _, scale, fmt in COLUMNS:
            value = metrics.get(name, {}).get("value")
            cells.append("-" if value is None else fmt.format(value * scale))
        cells.append("yes" if run["result"].get("correct") else "NO")
        twin = traced.get((workload, side))
        cells.append(largest_layer(twin) if twin else "-")
        yield workload, cells


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dir", default=ROOT,
                        help="directory holding BENCH_*.json")
    args = parser.parse_args()
    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")),
                   key=label_key)
    if not paths:
        sys.exit("bench_trajectory: no BENCH_*.json under " + args.dir)
    try:
        benches = [load(path) for path in paths]
    except (OSError, ValueError) as e:
        sys.exit("bench_trajectory: " + str(e))

    header = (["bench", "side", "workload"] + [c[1] for c in COLUMNS] +
              ["correct", "largest layer (self ns/record)"])
    by_workload = {}
    for bench in benches:
        for workload, cells in rows(bench):
            by_workload.setdefault(workload, []).append(cells)
    table = [header]
    for workload in sorted(by_workload):
        table.extend(by_workload[workload])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    for bench in benches:
        print("# BENCH_{}: {} on {}".format(bench["label"], bench["command"],
                                            bench["host"]))


if __name__ == "__main__":
    main()
