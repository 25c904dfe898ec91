#!/usr/bin/env python
"""Benchmark harness: headline KG pipeline + representative operators.

Usage:
  python bench.py              # one run over $GRAFT_SF_DIR (default sf0.1)
                               # with ray.init(num_cpus=$RAY_GRAFT_CPUS or 32)
  python bench.py --scaling    # same job in fresh processes at 8 and 32
                               # CPUs -> throughputs + scaling efficiency

Prints ONE JSON line:
  {"metric": "kg_pipeline_e2e", "value": <sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "docs_per_sec": ...}

The headline run is the full KG construction (HTML→text → NER actor
pool → relations → linking → canonicalize → edges/nodes) over the
synthetic pages corpus sized for the sf dir, writing to a FRESH output
directory (no checkpoint reuse).  Corpus generation and an initial
page-cache warm read are untimed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

# Registry queries the bench does not time, by reason:
_UNTIMED = {
    # cost is one more KG-pipeline run, already the headline metric
    # (kg_incremental_edges rebuilds the base batch; kg_inferred_country
    # adds only a vocabulary-bounded broadcast join on top)
    "kg_incremental_edges", "kg_inferred_country",
    # reads of the KG pipeline's own output tables
    "kg_extracted_text", "kg_triples", "kg_edges", "kg_mentions_by_label",
    "kg_nodes", "kg_cooccurrence", "kg_top_cooccurring",
    # earlier-round operators the bench has never timed
    "top_orders_per_status", "train_test_split", "order_lineitem_join",
    "orders_by_nation", "global_shuffle", "embedding_near_dup",
    "events_sliding_3h", "events_by_type_salted", "price_quantiles_by_status",
    "doc_stats_by_lang", "doc_fingerprints", "text_quality", "event_sessions",
    "max_order_by_cust", "distinct_event_types", "top_users_by_value",
}


def _run_bench(sf_dir: str, num_cpus: int) -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import pyarrow.dataset as pads

    from gliner_cpp_ray.pipelines import queries as q
    from gliner_cpp_ray.pipelines.kg import KGPipelineConfig, run_kg_pipeline
    from gliner_cpp_ray.sources.pages import ensure_corpus, n_pages_for_sf

    n_pages = int(os.environ.get("KGRAY_BENCH_PAGES", "0")) or n_pages_for_sf(sf_dir)
    corpus = ensure_corpus(n_pages, q.KG_SEED)
    pages_dir = os.path.join(corpus, "pages")

    # warm OS page cache (untimed)
    pads.dataset(pages_dir).count_rows()

    out_root = f"/tmp/kgray_bench/run_{os.getpid()}"
    shutil.rmtree(out_root, ignore_errors=True)

    # leave ~4 cores for read/write/shuffle tasks on big hosts, ~25% on
    # small ones
    pool = max(2, int(num_cpus * 0.75), num_cpus - 4)
    cfg = KGPipelineConfig(
        ner_concurrency=(pool, pool),  # fixed-size pool: no autoscaling ramp
        link_concurrency=(1, max(1, num_cpus // 8)),
        shards=1,
    )

    # warm the Ray worker pool (untimed): task workers import the library
    # once; measured runs then see steady-state workers, as a long-lived
    # cluster would
    warm_root = out_root + "_warm"
    shutil.rmtree(warm_root, ignore_errors=True)
    warm_corpus = ensure_corpus(200, q.KG_SEED)
    run_kg_pipeline(os.path.join(warm_corpus, "pages"), warm_root, cfg)
    shutil.rmtree(warm_root, ignore_errors=True)
    t0 = time.perf_counter()
    run_kg_pipeline(pages_dir, out_root, cfg)
    kg_sec = time.perf_counter() - t0
    shutil.rmtree(out_root, ignore_errors=True)

    timings: dict[str, float] = {"kg_pipeline": round(kg_sec, 3)}

    # warm the registry's shared KG checkpoint (untimed): the KG-derived
    # queries read /tmp/kgray_out/<corpus>; without this the FIRST such
    # query absorbs a whole pipeline build into its own timing (r4l:
    # kg_entity_cards read 15.9 s when the operator itself costs ~4 s).
    # Skipped with the secondary queries — the scaling children time
    # only the headline pipeline and must not pay an extra build.
    if not os.environ.get("KGRAY_SKIP_SECONDARY"):
        q._run_kg(sf_dir)

    def timed(name, fn):
        t = time.perf_counter()
        res = fn(sf_dir)
        # consume lazily-built datasets so the pipeline actually runs
        if hasattr(res, "to_pandas"):
            res.to_pandas()
        timings[name] = round(time.perf_counter() - t, 3)

    if not os.environ.get("KGRAY_SKIP_SECONDARY"):
        # incremental crawl ingestion: the base batch (~80% of pages) is
        # built untimed; the metric is the DELTA merge alone — NER over
        # the new pages plus the lineage-invalidated downstream stages.
        # (q_kg_incremental_edges itself is not timed: its cost is the
        # base pipeline again, already the headline metric.)
        from gliner_cpp_ray.pipelines.kg import run_kg_delta

        base_dir, delta_dir = q._incr_batches(corpus, n_pages)
        incr_out = f"/tmp/kgray_bench/incr_{os.getpid()}"
        shutil.rmtree(incr_out, ignore_errors=True)
        run_kg_pipeline(base_dir, incr_out, cfg)
        t0 = time.perf_counter()
        run_kg_delta(delta_dir, incr_out, cfg)
        timings["kg_delta_ingest"] = round(time.perf_counter() - t0, 3)
        shutil.rmtree(incr_out, ignore_errors=True)

        for name, fn in q.queries().items():
            if name not in _UNTIMED:
                timed(name, fn)

    result = {
        "metric": "kg_pipeline_e2e",
        "value": round(kg_sec, 3),
        "unit": "sec",
        "queries": timings,
        "sf": os.path.basename(os.path.normpath(sf_dir)),
        "num_cpus": num_cpus,
        "n_pages": n_pages,
        "docs_per_sec": round(n_pages / kg_sec, 2),
    }
    ray.shutdown()
    return result


def _scaling(sf_dir: str, lo: int = 8, hi: int = 32) -> dict:
    """Sandbox proxy for two cluster sizes (N vs 4N nodes): the same job
    on the same input in fresh processes at ``lo`` and ``hi`` CPUs.

    Uses a larger corpus (KGRAY_SCALING_PAGES, default 200k pages) than
    the plain bench so the job is compute-bound, as a 100 TB run would
    be — at sf0.1's 20k pages the whole pipeline finishes in seconds and
    fixed orchestration latency (job submit, actor spawn, shuffle
    barriers) would dominate the ratio."""
    scaling_pages = os.environ.get("KGRAY_SCALING_PAGES", "8000000")
    repeats = int(os.environ.get("KGRAY_SCALING_REPEATS", "1"))

    # generate the corpus ONCE here at full host parallelism, so the
    # 8-CPU child doesn't pay a many-minute generation bill
    import ray

    ray.init(
        address="local",
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from gliner_cpp_ray.pipelines.queries import KG_SEED
    from gliner_cpp_ray.sources.pages import ensure_corpus

    ensure_corpus(int(scaling_pages), KG_SEED)
    ray.shutdown()

    def run_once(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=sf_dir,
            KGRAY_BENCH_PAGES=scaling_pages,
            KGRAY_SKIP_SECONDARY="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def run(ncpu: int) -> dict:
        # best-of-N (BASELINE.md protocol): shields the ratio from
        # transient host noise
        return min((run_once(ncpu) for _ in range(repeats)), key=lambda r: r["value"])

    r_lo, r_hi = run(lo), run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus": [lo, hi],
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"docs_per_sec_{lo}": r_lo["docs_per_sec"],
        f"docs_per_sec_{hi}": r_hi["docs_per_sec"],
        "sf": r_lo["sf"],
        "n_pages": r_lo["n_pages"],
    }


if __name__ == "__main__":
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if "--scaling" in sys.argv:
        print(json.dumps(_scaling(sf_dir)))
    else:
        ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
        print(json.dumps(_run_bench(sf_dir, ncpu)))
