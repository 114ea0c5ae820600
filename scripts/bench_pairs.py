#!/usr/bin/env python3
"""Alternating benchmark pairs of two source checkouts.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload fctp_dense --seed 0 --pairs 10 --out BENCH_7.json

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace X` once in each checkout, as a subprocess whose working directory is
that checkout; the side that runs first alternates from pair to pair. The
script prints, per end-to-end metric, each side's median and quartiles, how
many pairs the change won (ties count for neither side) and a status against
the metric's bound from the change checkout's BENCHMARK.json: `ok` when the
change's median stays inside it, `EXCEEDED` when not, and `unresolved` when
the parent's interquartile spread, as a share of the parent's median, is
wider than the bound and not every change run beats every parent run: the
runs then spread too widely to tell. With `--claim METRIC` it also prints
whether that metric meets the gain rule: the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile spread. Traced
runs (`--trace 1`) are compared by trajectory fingerprint instead, and the
medians of a few per-layer metrics are printed: the solver's layers and the
oracle's own time, re-solve time, pivots and objective evaluations.

Every result file the runs write is copied whole into `--out`; an existing
file is extended, so one file can hold several workloads and seeds. Nothing
under either checkout's `perfbench/` is edited beyond what `run.py` itself
writes there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# Per-layer metrics whose medians a traced comparison prints: the solver's
# layers, then where the oracle's time and work go.
LAYERS = ("netcore.evaluate_all_entering.s", "netcore.SimplexState.optimize.s",
          "gits.inside_loop.self_s", "netcore.evaluate_fc_entering.s",
          "oracle.brute_force_opt.self_s", "netcore.reoptimize.s",
          "netcore.SimplexState.optimize.pivots", "netcore.fc_objective.calls")


def run_once(checkout: Path, args) -> dict:
    """One benchmark invocation; returns its result file's record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    marker = "# result file: "
    path = next(line[len(marker):] for line in proc.stdout.splitlines()
                if line.startswith(marker))
    return json.loads((checkout / path).read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, bounds, claim):
    """Per-metric medians, quartiles, wins and checks of untraced pairs."""
    lines, report = [], {}
    for spec in bounds:
        name, lower = spec["name"], spec["better"] == "lower"
        side = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
        med = {s: statistics.median(side[s]) for s in SIDES}
        q = {s: quartiles(side[s]) for s in SIDES}
        base = abs(med["parent"])
        worse = (med["change"] - med["parent"]) if lower else (med["parent"] - med["change"])
        within = worse <= spec["bound"] * base
        spread = q["parent"][1] - q["parent"][0]
        dominates = (max(side["change"]) < min(side["parent"]) if lower
                     else min(side["change"]) > max(side["parent"]))
        status = "ok" if within else "EXCEEDED"
        if spread > spec["bound"] * base and not dominates:
            status = "unresolved"
        row = {"parent_median": med["parent"], "change_median": med["change"],
               "parent_quartiles": q["parent"], "change_quartiles": q["change"],
               "wins": wins, "pairs": len(runs), "bound": spec["bound"],
               "within_bound": within, "status": status}
        text = (f"{name:14s} parent {med['parent']:.6g} [{q['parent'][0]:.6g}, "
                f"{q['parent'][1]:.6g}]  change {med['change']:.6g} [{q['change'][0]:.6g}, "
                f"{q['change'][1]:.6g}]  wins {wins}/{len(runs)}  "
                f"bound {spec['bound']:.0%} {status}")
        if name == claim:
            met = wins >= 0.9 * len(runs) and -worse > spread
            row.update(claim_met=met, parent_iqr=spread)
            text += f"  claim {'met' if met else 'NOT met'} (parent IQR {spread:.6g})"
        report[name] = row
        lines.append(text)
    return report, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", default=None, help="end-to-end metric claimed to improve")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write or extend")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in checkouts.values():
        if not (path / "perfbench" / "run.py").is_file():
            ap.error(f"{path} holds no perfbench/run.py")
    manifest = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(checkouts[side], args) for side in order}
        pair["first"] = order[0]
        runs.append(pair)
        if args.trace == 0:
            solve = {s: pair[s]["metrics"]["solve_s"]["value"] for s in SIDES}
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): solve_s parent "
                  f"{solve['parent']:.4g} change {solve['change']:.4g}", flush=True)

    group = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "pairs": runs}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {args.pairs} pair(s)")
    if args.trace == 0:
        group["summary"], lines = summarize(runs, manifest["end_to_end"], args.claim)
        print("\n".join(lines))
    else:
        same = all(r["parent"]["fingerprint"] == r["change"]["fingerprint"] for r in runs)
        group["fingerprints_equal"] = same
        print(f"trajectory fingerprints {'equal' if same else 'DIFFER'}")
        for name in LAYERS:
            vals = {s: statistics.median(r[s]["metrics"][name]["value"] for r in runs)
                    for s in SIDES}
            print(f"{name:40s} parent {vals['parent']:.4g} change {vals['change']:.4g}")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"groups": []}
    doc["groups"].append(group)
    args.out.write_text(json.dumps(doc, indent=1, default=str) + "\n")
    print(f"# wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
