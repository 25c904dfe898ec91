"""End-to-end KG construction pipeline (north_rule), checkpointed.

    pages ──read_parquet(cols pruned, lang pushdown)──▶ docs (html→text)
      ──byte-cap rebatch──▶ NER actor pool ──▶ mentions  [checkpoint, sharded]
    mentions ──relations──▶ triples ──linker tasks──▶ linked  [checkpoint]
    mentions(text, label) ──count──sum exchange──▶ driver: canon map
      + mention node partials  [canon]
    linked ──canon rewrite──keyed exchange(triple)──sort(subj)──▶ edges
    linked ──endpoint partials──sum exchange──▶ driver: reduce with the
      mention node partials ──sort(canon_id)──▶ nodes

Each stage streams; the driver holds only vocabulary-bounded tables
(merged surface counts, canon map, node table).  Stage outputs are
Parquet with manifests + ``_SUCCESS`` (state/checkpoint.py); the NER
stage is also sharded over input-file groups so a failed run resumes
mid-stage.  Shuffles after NER: surface sum; edge repartition, keyed
exchange and subject sort; endpoint sum.
"""

from __future__ import annotations

import json
import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import pyarrow.dataset as pads

from gliner_cpp_ray.stages.canonicalize import (
    NODE_PARTIALS_SCHEMA,
    SURFACE_COUNTS_SCHEMA,
    canonize_triple_endpoints,
    count_surfaces,
    reduce_edge_bucket,
    reduce_nodes,
    resolve_surfaces,
    rewrite_triples_to_canon,
)
from gliner_cpp_ray.stages.html_to_text import html_to_docs
from gliner_cpp_ray.stages.linking import LINKED_EXTRA, link_triples
from gliner_cpp_ray.stages.ner import MENTIONS_SCHEMA, GlinerNERStage
from gliner_cpp_ray.stages.relations import TRIPLES_SCHEMA, extract_relations
from gliner_cpp_ray.stages.repartition import make_byte_capped_rebatcher
from gliner_cpp_ray.state import checkpoint


def _patch_http_fs_probe() -> None:
    """Harden Ray's ``_is_http_filesystem`` against a thread race.

    Its guard catches only ``ModuleNotFoundError``, but when two stage
    threads resolve paths concurrently and ``aiohttp`` is absent, the
    concurrent ``fsspec.implementations.http`` imports can surface a
    plain ``ImportError`` ("cannot import name ...") from a partially
    initialized module, crashing an otherwise-valid local read.  Any
    import failure means "not an http filesystem", so map it to False.
    """
    try:
        import ray.data.datasource.path_util as _pu
    except ImportError:  # pragma: no cover
        return
    orig = _pu._is_http_filesystem
    if getattr(orig, "_kgray_patched", False):
        return

    def safe(fs):
        try:
            return orig(fs)
        except ImportError:
            return False

    safe._kgray_patched = True
    _pu._is_http_filesystem = safe


_patch_http_fs_probe()


@dataclass
class KGPipelineConfig:
    lang_allow: tuple[str, ...] = ("en",)
    ner_kwargs: dict = field(default_factory=dict)
    ner_batch_size: int = 128
    ner_concurrency: tuple[int, int] = (2, 16)
    ner_num_cpus: float = 1.0
    link_concurrency: tuple[int, int] = (1, 4)
    shards: int = 2  # input-file groups for resumable NER (raise at cluster scale)
    max_block_bytes: int = 4 * 1024 * 1024

    def resolved_reduce_partitions(self, input_bytes: int) -> int:
        """Partition count for the post-combiner shuffles, from INPUT
        BYTES capped by cluster size (sizing.bytes_scaled_partitions):
        it scales with the data without over-partitioning toy corpora."""
        from gliner_cpp_ray.stages.sizing import bytes_scaled_partitions

        return bytes_scaled_partitions(input_bytes)

    def fingerprint(self) -> dict:
        return {
            "lang_allow": list(self.lang_allow),
            "ner_batch_size": self.ner_batch_size,
            "shards": self.shards,
        }


def _trim_stats(ds) -> list[str]:
    """Per-operator wall-time lines from ds.stats() for the manifest."""
    try:
        return [
            ln.strip()
            for ln in ds.stats().splitlines()
            if ln.startswith("Operator") or "execution time" in ln
        ][:20]
    except Exception:
        return []


def _pages_files(pages_path: str) -> list[str]:
    if os.path.isfile(pages_path):
        return [pages_path]
    return sorted(
        os.path.join(root, f)
        for root, _, names in os.walk(pages_path)
        for f in names
        if f.endswith(".parquet")
    )


def read_pages(paths, lang_allow=("en",), columns=("url", "html", "lang"),
               num_blocks: int | None = None):
    """Column-pruned, predicate-pushdown read of the pages table.

    ``num_blocks`` sets task granularity: ~20 blocks per CPU keeps the
    NER actor pool fed evenly and shrinks straggler tails from skewed
    blocks (measured 1.6x on the mentions stage at 32 CPUs vs
    file-sized blocks)."""
    import ray.data as rd

    return rd.read_parquet(
        paths,
        columns=list(columns),
        filter=pads.field("lang").isin(list(lang_allow)),
        override_num_blocks=num_blocks,
    )


def build_mentions(pages_ds, cfg: KGPipelineConfig):
    docs = pages_ds.map_batches(html_to_docs, batch_format="pyarrow")
    docs = docs.map_batches(
        make_byte_capped_rebatcher(cfg.max_block_bytes), batch_format="pyarrow"
    )
    return docs.map_batches(
        GlinerNERStage,
        fn_constructor_kwargs=cfg.ner_kwargs,
        batch_format="pyarrow",
        batch_size=cfg.ner_batch_size,
        concurrency=cfg.ner_concurrency,
        num_cpus=cfg.ner_num_cpus,
    )


def _inputs_fingerprint(files: list[str]) -> list[list]:
    """Identity of a shard's input files for checkpoint staleness:
    (basename, bytes) pairs.  A shard checkpointed over DIFFERENT input
    files (e.g. the corpus grew and the file groups shifted) must not
    be silently reused just because the pipeline config matched."""
    return [[os.path.basename(f), os.path.getsize(f)] for f in files]


def _mentions_lineage(out_root: str) -> list[list]:
    """Fingerprint of every finished mentions shard under ``out_root``:
    (shard dir name, total_rows, total_bytes), sorted.  Downstream stage
    checkpoints embed this in their config, so ingesting a new shard
    (run_kg_delta) or re-running a changed shard automatically marks
    linked/canon/edges/nodes stale — no manual invalidation."""
    root = os.path.join(out_root, "mentions")
    lineage = []
    if os.path.isdir(root):
        for name in sorted(os.listdir(root)):
            mpath = os.path.join(root, name, "manifest.json")
            if checkpoint.is_done(os.path.join(root, name)):
                try:
                    with open(mpath) as f:
                        m = json.load(f)
                except (OSError, json.JSONDecodeError):
                    continue
                lineage.append(
                    [name, m.get("total_rows", 0), m.get("total_bytes", 0)]
                )
    return lineage


def _make_mentions_producer(group: list[str], cfg: KGPipelineConfig):
    def produce(path):
        import ray as _r

        try:
            _n = int(_r.cluster_resources().get("CPU", 8))
        except Exception:
            _n = 8
        ds = read_pages(group, cfg.lang_allow, num_blocks=20 * _n)
        out = build_mentions(ds, cfg)
        # coalesce output files: hundreds of tiny parquet files slow
        # the write and every downstream read
        out.write_parquet(path, min_rows_per_file=200_000)
        return {"input_files": group, "dataset_stats": _trim_stats(out)}

    return produce


def run_kg_pipeline(pages_path: str, out_root: str, cfg: KGPipelineConfig | None = None) -> dict:
    """Run (or resume) the full pipeline; returns per-stage manifests."""
    cfg = cfg or KGPipelineConfig()
    os.makedirs(out_root, exist_ok=True)
    summary: dict = {}

    # --- stage 1: mentions (sharded + resumable) ----------------------
    files = _pages_files(pages_path)
    # data-aware shuffle parallelism: post-combiner volume tracks input
    # volume, so size the reduce partitions from the pages bytes we can
    # see (capped by cluster size in sizing.bytes_scaled_partitions)
    input_bytes = sum(os.path.getsize(f) for f in files)
    reduce_parts = cfg.resolved_reduce_partitions(input_bytes)
    n_shards = max(1, min(cfg.shards, len(files)))
    groups = [files[i::n_shards] for i in range(n_shards)]
    mentions_root = os.path.join(out_root, "mentions")
    shard_manifests = []
    for k, group in enumerate(groups):
        shard_dir = os.path.join(mentions_root, f"shard-{k}")
        shard_manifests.append(
            checkpoint.run_stage(
                shard_dir,
                {
                    "stage": "mentions",
                    "config": {
                        **cfg.fingerprint(),
                        "inputs": _inputs_fingerprint(group),
                    },
                },
                _make_mentions_producer(group, cfg),
            )
        )
    summary["mentions"] = {
        "shards": len(shard_manifests),
        "rows": sum(m["total_rows"] for m in shard_manifests),
        "wall_sec": sum(m.get("wall_sec", 0) for m in shard_manifests),
    }

    summary.update(_run_downstream(out_root, cfg, reduce_parts))
    return summary


def run_kg_delta(delta_pages, out_root: str, cfg: KGPipelineConfig | None = None) -> dict:
    """Ingest a NEW crawl batch into an existing KG ``out_root``.

    The expensive NER stage runs over the delta pages ONLY (a fresh
    mentions shard named from the delta's input-file identity, so the
    same batch re-ingested is a checkpoint no-op); the downstream
    stages (relations+linking, canonicalization, edges, nodes) then
    recompute over the union of all mention shards — their checkpoints
    embed the mentions lineage, so the new shard marks them stale
    automatically.  The result is bit-identical to a full recompute
    over base ∪ delta (canonicalization is global: a delta mention can
    merge two previously-distinct surface clusters, so the cheap wide
    stages must re-run; the NER cost — the dominant term at crawl
    scale — stays delta-sized).

    ``delta_pages``: a pages dir / parquet file, or an explicit list of
    parquet files.  Returns per-stage manifests.
    """
    import hashlib

    cfg = cfg or KGPipelineConfig()
    files = (
        list(delta_pages)
        if isinstance(delta_pages, (list, tuple))
        else _pages_files(delta_pages)
    )
    if not files:
        raise ValueError("run_kg_delta: delta batch contains no parquet files")
    if not os.path.isdir(os.path.join(out_root, "mentions")):
        raise ValueError(
            f"run_kg_delta: {out_root} has no mentions stage — run "
            "run_kg_pipeline on the base corpus first"
        )
    inputs = _inputs_fingerprint(files)
    tag = hashlib.md5(
        ";".join(f"{b}:{s}" for b, s in inputs).encode()
    ).hexdigest()[:12]
    shard_dir = os.path.join(out_root, "mentions", f"shard-delta-{tag}")
    manifest = checkpoint.run_stage(
        shard_dir,
        {"stage": "mentions", "config": {**cfg.fingerprint(), "inputs": inputs}},
        _make_mentions_producer(files, cfg),
    )
    summary = {
        "mentions": {
            "shards": 1,
            "rows": manifest["total_rows"],
            "wall_sec": manifest.get("wall_sec", 0),
        }
    }
    # downstream shuffle parallelism: size from the full corpus seen so
    # far (all shards' recorded input files, falling back to mentions
    # bytes when an input file has been removed since)
    input_bytes = sum(s for _, s in inputs)
    for name, _rows, nbytes in _mentions_lineage(out_root):
        if name == os.path.basename(shard_dir):
            continue
        input_bytes += nbytes
    reduce_parts = cfg.resolved_reduce_partitions(input_bytes)
    summary.update(_run_downstream(out_root, cfg, reduce_parts))
    return summary


def _sum_exchange(ds, schema, n_parts: int):
    """Merge per-block count partials with ``groupby(keys).sum("count")``
    (``keys``: every column of ``schema`` but the last, ``count``) into
    one Arrow table on the driver, typed by ``schema``.  The callers'
    keys are vocabulary-bounded, so it is small at any corpus size."""
    import pyarrow as pa

    summed = ds.groupby(schema.names[:-1], num_partitions=n_parts).sum("count")
    # iter_batches: ray.get(to_arrow_refs()) took ~0.4 s longer per
    # exchange (Ray 2.49, 2-CPU local session, 20k-page corpus)
    parts = [
        t
        for t in summed.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    ]
    if not parts:
        return schema.empty_table()
    return pa.concat_tables(parts).rename_columns(schema.names).cast(schema)


def _canon_from_mentions(mentions, n_parts: int):
    """Mention ``(text, label)`` rows -> ``(pairs, canon_map, mention
    node partials)``: block counts, one sum exchange, driver resolve."""
    surfaces = mentions.map_batches(count_surfaces, batch_format="pyarrow")
    return resolve_surfaces(_sum_exchange(surfaces, SURFACE_COUNTS_SCHEMA, n_parts))


def _nodes_from_linked(linked, canon_map: dict, mention_partials, n_parts: int):
    """Linked triple endpoints + the mention node partials -> the node
    table: one sum exchange, then one reduce on the driver."""
    import pyarrow as pa

    endpoints = linked.map_batches(
        canonize_triple_endpoints,
        fn_kwargs={"canon_map": canon_map},
        batch_format="pyarrow",
    )
    return reduce_nodes(
        pa.concat_tables(
            [mention_partials, _sum_exchange(endpoints, NODE_PARTIALS_SCHEMA, n_parts)]
        )
    )


# layout version of the downstream checkpoints (schema or column meaning,
# e.g. which doc ids edge provenance keeps), part of their config: a
# stage written under another layout is recomputed, not reused
_TAIL_LAYOUT = 3


def _run_downstream(out_root: str, cfg: KGPipelineConfig, reduce_parts: int) -> dict:
    """Stages 2-5 (linked, canon, edges, nodes) over whatever mention
    shards exist under ``out_root``.  Checkpoint configs embed the
    mentions lineage: any change to the mention set re-runs them."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    summary: dict = {}
    stage_cfg = {
        **cfg.fingerprint(),
        "mentions": _mentions_lineage(out_root),
        "tail": _TAIL_LAYOUT,
    }

    try:
        _ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        _ncpu = 8
    # task granularity for downstream scans: a handful of tasks per CPU
    # (hundreds of ~100ms tasks pay more dispatch than compute)
    _scan_blocks = max(8, 4 * _ncpu)

    def run_pair(jobs):
        """jobs: [(summary_key, dir, manifest, producer)] — as two
        concurrently-executing Datasets when the cluster has >= 16 CPUs,
        else sequentially: on small clusters two competing streaming
        executors thrash each other."""
        if _ncpu >= 16 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futs = [
                    (key, pool.submit(checkpoint.run_stage, d, m, prod))
                    for key, d, m, prod in jobs
                ]
                for key, fut in futs:
                    summary[key] = fut.result()
        else:
            for key, d, m, prod in jobs:
                summary[key] = checkpoint.run_stage(d, m, prod)

    def read_stage(name, schema, columns=None):
        path = os.path.join(out_root, name)
        if not any(
            f.endswith(".parquet")
            for root, _, names in os.walk(path)
            for f in names
        ):
            # a fully-filtered corpus produces no files; keep the typed
            # schema so downstream transforms still resolve columns
            import pyarrow as pa

            fields = [f for f in schema if columns is None or f.name in columns]
            return rd.from_arrow(pa.schema(fields).empty_table())
        # prune at the read: checkpoints are re-scanned by several
        # downstream stages, each needing only a few columns
        return rd.read_parquet(
            path,
            file_extensions=["parquet"],
            columns=columns,
            override_num_blocks=_scan_blocks,
        )

    # --- stage 2: triples + linking -----------------------------------
    linked_dir = os.path.join(out_root, "linked")

    def produce_linked(path):
        mentions = read_stage("mentions", MENTIONS_SCHEMA)
        triples = mentions.map_batches(extract_relations, batch_format="pyarrow")
        # cheap-state stage -> plain tasks with a cached per-process
        # linker (no actor-pool spin-up; see linking.default_linker)
        linked = triples.map_batches(link_triples, batch_format="pyarrow")
        linked.write_parquet(path, min_rows_per_file=200_000)
        return {"input": "mentions", "dataset_stats": _trim_stats(linked)}

    # --- stage 3: canon map + mention node partials --------------------
    # the only downstream reader of the mention surfaces: one scan, one
    # sum exchange, then everything else on the vocabulary-sized table
    canon_dir = os.path.join(out_root, "canon")
    canon_pkl = os.path.join(canon_dir, "canon_map.pkl")
    mention_nodes = os.path.join(canon_dir, "mention_nodes.parquet")

    def produce_canon(path):
        pairs, canon_map, partials = _canon_from_mentions(
            read_stage("mentions", MENTIONS_SCHEMA, columns=["text", "label"]),
            reduce_parts,
        )
        pq.write_table(partials, mention_nodes)
        with open(canon_pkl, "wb") as f:
            pickle.dump(canon_map, f)
        return {"n_pairs": pairs.num_rows, "n_canon": len(set(canon_map["qid"].values()))}

    # linked and canon both depend only on mentions
    run_pair(
        [
            ("linked", linked_dir, {"stage": "linked", "config": stage_cfg}, produce_linked),
            ("canon", canon_dir, {"stage": "canon", "config": stage_cfg}, produce_canon),
        ]
    )
    with open(canon_pkl, "rb") as f:
        canon_map = pickle.load(f)

    # --- stage 4: edges (canon rewrite -> dedup count -> sort) --------
    edges_dir = os.path.join(out_root, "edges")

    linked_schema = list(TRIPLES_SCHEMA) + [
        __import__("pyarrow").field(n, t) for n, t in LINKED_EXTRA
    ]

    _EDGE_COLS = [
        "doc_id", "subj", "pred", "obj", "subj_label", "obj_label",
        "subj_qid", "obj_qid",
    ]
    _EDGE_KEY_COLS = ["subj_canon", "pred", "obj_canon"]
    _ENDPOINT_COLS = [
        "subj", "obj", "subj_label", "obj_label", "subj_qid", "obj_qid",
    ]

    def produce_edges(path):
        # imported here, not at module top, so importing this module
        # does not load the join stages
        from gliner_cpp_ray.stages.joins import keyed_exchange

        linked = read_stage("linked", linked_schema, columns=_EDGE_COLS)
        partial = linked.map_batches(
            rewrite_triples_to_canon,
            fn_kwargs={"canon_map": canon_map},
            batch_format="pyarrow",
        )
        # keyed_exchange on the triple key: one vectorized
        # reduce_edge_bucket per hash bucket, not one map_groups call per
        # distinct triple.  The repartition first COALESCES the
        # post-combiner partial stream (tiny rows spread over ~4·CPU scan
        # blocks) so the all-to-all shuffles a handful of blocks, not
        # hundreds of slivers — measured 10x on the stage wall time at 2M
        # pages.  Distinct edges are not vocabulary-bounded, so this
        # reduce stays distributed.
        edges = keyed_exchange(
            partial.repartition(reduce_parts),
            _EDGE_KEY_COLS, reduce_edge_bucket, reduce_parts,
        ).sort("subj_canon")
        edges.write_parquet(path)
        return {"input": "linked", "dataset_stats": _trim_stats(edges)}

    # --- stage 5: nodes ----------------------------------------------
    nodes_dir = os.path.join(out_root, "nodes")

    def produce_nodes(path):
        nodes = _nodes_from_linked(
            read_stage("linked", linked_schema, columns=_ENDPOINT_COLS),
            canon_map,
            pq.read_table(mention_nodes),
            reduce_parts,
        )
        pq.write_table(nodes, os.path.join(path, "nodes.parquet"))
        return {"input": "linked"}

    run_pair(
        [
            ("edges", edges_dir, {"stage": "edges", "config": stage_cfg}, produce_edges),
            ("nodes", nodes_dir, {"stage": "nodes", "config": stage_cfg}, produce_nodes),
        ]
    )
    return summary
