#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark between two checkouts.

    python3 tools/ab.py --parent DIR --change DIR --workload W --pairs N --seed S

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
each checkout, with ``T`` the ``run_seconds`` that ``BENCHMARK.json``
fixes, one run at a time, N times each, flipping which side runs first
on every pair so that slow drift of the host falls on both sides alike.
For each end-to-end metric that ``BENCHMARK.json`` declares, it prints
each side's median and quartiles and how many of the N pairs the change
won (ties count for neither side), then one JSON line with every sample.

A run that fails or reports incorrect output is listed and left out of
its metric's samples, and its pair is no win for the change.  A gain
counts when the change wins at least nine tenths of all N pairs, the
medians differ by more than the parent's interquartile range, and the
change failed no more runs than the parent; the ``claim`` column says
whether all three hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object of one benchmark run in ``root``, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed in {root} (exit {proc.returncode}):\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        print(f"  incorrect output in {root}: {result}", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict | None]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, seconds))
        done = {s: runs[s][-1] for s in order}
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + "  ".join(
            f"{s} " + (" ".join(f"{m['name']}={v[m['name']]:.4g}" for m in metrics)
                       if v else "FAILED")
            for s, v in done.items()), file=sys.stderr, flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{seconds:g} s per run")
    print(f"{'metric':<14}{'parent median [q1, q3]':>32}{'change median [q1, q3]':>32}"
          f"{'ratio':>8}{'wins':>8}  claim")
    failed = {s: sum(r is None for r in rs) for s, rs in runs.items()}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pa_ = [r[name] for r in runs["parent"] if r]
        ch = [r[name] for r in runs["change"] if r]
        if not pa_ or not ch:
            print(f"{name:<14} no run completed on one side")
            continue
        # a pair with a failed run is no win for the change
        wins = sum(1 for a, b in zip(runs["parent"], runs["change"]) if a and b
                   and ((b[name] < a[name]) if lower else (b[name] > a[name])))
        (p1, pm, p3), (c1, cm, c3) = quartiles(pa_), quartiles(ch)
        gain = (pm - cm) if lower else (cm - pm)
        claim = (wins >= 0.9 * args.pairs and gain > (p3 - p1)
                 and failed["change"] <= failed["parent"])
        print(f"{name:<14}{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>32}"
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>32}{cm / pm if pm else 0:>8.3f}"
              f"{f'{wins}/{args.pairs}':>8}  {'yes' if claim else 'no'}")
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": seconds, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
