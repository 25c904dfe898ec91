#!/usr/bin/env python3
"""Repository benchmark: single-core NER, fresh KG build and delta ingest.

Run from the repository root:

    python3 perfbench/run.py --workload kg_full_build --seed 7 --seconds 30 --trace 0

Workloads: ``ner_inproc``, ``kg_full_build``, ``kg_delta_ingest`` (see
perfbench/README.md).  Standard output ends with two JSON lines: a record
of the host and the per-iteration samples, then the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run.  Cached corpora live in ``.perfbench_cache/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PAGES = 20_000


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest() -> str:
    """sha1 over the package's Python sources (the checkout may not be a
    git repository)."""
    h = hashlib.sha1()
    pkg = os.path.join(ROOT, "gliner_cpp_ray")
    for dirpath, dirnames, names in os.walk(pkg):
        dirnames.sort()
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_revision() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; git would report an enclosing repo
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["ner_inproc", "kg_full_build", "kg_delta_ingest"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pages", type=int, default=DEFAULT_PAGES,
                   help="corpus size in pages (default %(default)s)")
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: drop one output row before each check")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "gliner_cpp_ray", "__init__.py")):
        print(f"perfbench: no gliner_cpp_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import workloads

    ctx = workloads.Ctx(ROOT, args.pages, args.seed, args.seconds,
                        bool(args.trace), args.corrupt)
    try:
        res = workloads.WORKLOADS[args.workload](ctx)
    except workloads.BenchSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not res.walls:
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1

    wall = statistics.median(res.walls)
    if args.trace:
        values = res.layers
    else:
        values = {
            "wall_s": wall,
            "docs_per_s": res.docs / wall,
            "setup_s": res.setup_s,
            "peak_rss_mb": res.peak_rss_mb,
        }
    units = metric_units(bool(args.trace))
    missing = units.keys() - values.keys()
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {**res.host, "git_revision": git_revision(),
                 "source_sha1": source_digest()},
        "wall_s_samples": res.walls,
        "stage_walls": res.stage_walls,
        "error_rate": res.failed / res.attempted,
    }
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
