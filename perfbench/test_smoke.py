"""Smoke test of the benchmark on a 200-page corpus.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once with tracing off and once with tracing on; every
named metric must be present, and a run whose output lost one row must be
counted as failed.  Takes about three minutes on one core.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ner_inproc", "kg_full_build", "kg_delta_ingest"]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--pages", "200", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert record["host"]["corpus_pages"] == 200 and record["host"]["docs"] > 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    result = _run(workload, 0)
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present(workload):
    result = _run(workload, 1)
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert result["correct"]
    assert result["metrics"]["ner.mentions"]["value"] > 0


@pytest.mark.parametrize("workload", ["ner_inproc", "kg_full_build"])
def test_dropped_row_counts_as_failure(workload):
    result = _run(workload, 0, "--corrupt")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
