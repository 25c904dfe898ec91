"""End-to-end KG construction pipeline (north_rule), checkpointed.

    pages ──read_parquet (one task per file; cols pruned, lang pushdown)
      + html→text in the same task ──▶ NER actor pool (NER only)
      ──▶ per write task (_ShardSink, ~_ROWS_PER_WRITE mention rows):
        mention rows                ──▶ mentions/<shard>/   [checkpoint]
        relations ──▶ linking       ──▶ parts/<shard>/linked-*
        (text, label, count)        ──▶ parts/<shard>/surfaces-*
        raw triple (count, prov ≤8) ──▶ parts/<shard>/triples-*
    driver, over every finished shard's parts:
      linked-*   ──hard links──▶ linked
      surfaces-* ──sum──▶ resolve_surfaces ──▶ canon map + mention node
        partials  [canon]
      triples-*  ──canon rewrite──▶ reduce_edges ──sort(key)──▶ edges
        (above _DRIVER_MERGE_BYTES: keyed exchange(key) ──sort──▶ edges)
      triples-*  ──ambiguous endpoints──▶ reduce with the mention node
        partials ──sort(canon_id)──▶ nodes

Relations, linking and every partial run inside the write tasks of the
NER dataset, on the CPUs the NER actors leave free; the tail then runs
no Ray execution while the triple partials stay under the bound.  Each
shard's parts are materialized once and reused by every later run
(``run_kg_delta`` does NER, relations and linking over the delta only).
Stage outputs are Parquet with manifests + ``_SUCCESS``
(state/checkpoint.py); the NER stage is sharded over input-file groups
so a failed run resumes mid-stage.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import shutil
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
from ray.data import Datasink
from ray.data.block import BlockAccessor

from gliner_cpp_ray.stages.canonicalize import (
    SURFACE_COUNTS_SCHEMA,
    TRIPLE_PARTIALS_SCHEMA,
    canonize_triple_endpoints,
    count_surfaces,
    count_triples,
    reduce_edge_bucket,
    reduce_edges,
    reduce_nodes,
    resolve_surfaces,
    rewrite_partials_to_canon,
)
from gliner_cpp_ray.stages.html_to_text import html_to_docs
from gliner_cpp_ray.stages.linking import link_triples
from gliner_cpp_ray.stages.ner import GlinerNERStage
from gliner_cpp_ray.stages.relations import extract_relations
from gliner_cpp_ray.state import checkpoint


@dataclass
class KGPipelineConfig:
    lang_allow: tuple[str, ...] = ("en",)
    ner_kwargs: dict = field(default_factory=dict)
    ner_batch_size: int = 128
    ner_concurrency: tuple[int, int] = (2, 16)
    ner_num_cpus: float = 1.0
    link_concurrency: tuple[int, int] = (1, 4)
    shards: int = 2  # input-file groups for resumable NER (raise at cluster scale)

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


def read_pages(files: list[str], lang_allow=("en",), columns=("url", "html", "lang")):
    """Column-pruned, predicate-pushdown read of the pages files: one
    read task (and one block) per file, so a map after it fuses into
    the read task (Ray 2.49 never fuses a split read with its next map).

    The NER pool then gets one block per file: a shard needs at least
    ~2 files per NER actor to keep the whole pool busy, and a file's
    pages go through one actor.  Finer reads split the parse into
    their own operator, whose tasks the streaming executor starts at
    most one per ~100 ms tick on a free CPU."""
    import ray.data as rd

    return rd.read_parquet(
        files,
        columns=list(columns),
        filter=pads.field("lang").isin(list(lang_allow)),
        override_num_blocks=len(files),
        # with the NER map's explicit SPREAD: the fusion boundary of
        # build_mentions
        ray_remote_args={"scheduling_strategy": "DEFAULT"},
    )


def _ner_pool_bounds(cfg: KGPipelineConfig, cpus: float) -> tuple[int, int]:
    """``cfg.ner_concurrency`` capped so the NER actors leave one of the
    session's ``cpus`` free: the read tasks that feed the pool need it,
    and with every CPU held by an actor the pipeline waits forever."""
    lo, hi = cfg.ner_concurrency
    if cfg.ner_num_cpus > 0:
        fit = int((cpus - 1) // cfg.ner_num_cpus)
        if fit < 1:
            raise ValueError(
                f"a Ray session of {cpus:g} CPUs cannot hold one NER actor of "
                f"{cfg.ner_num_cpus:g} CPU and keep one CPU free for reads"
            )
        lo, hi = min(lo, fit), min(hi, fit)
    return lo, hi


def build_mentions(pages_ds, cfg: KGPipelineConfig):
    """Pages -> mention rows: HTML→text fuses into the read tasks, and
    the NER actors run only NER.  The two maps' differing scheduling
    strategies are the fusion boundary: with equal remote args Ray fuses
    a task map into the actor map after it, and the parse would run on
    the NER actors' CPUs instead of the CPUs the pool leaves free."""
    import ray

    docs = pages_ds.map_batches(html_to_docs, batch_format="pyarrow")
    return docs.map_batches(
        GlinerNERStage,
        fn_constructor_kwargs=cfg.ner_kwargs,
        batch_format="pyarrow",
        batch_size=cfg.ner_batch_size,
        concurrency=_ner_pool_bounds(cfg, ray.cluster_resources().get("CPU", 0)),
        num_cpus=cfg.ner_num_cpus,
        scheduling_strategy="SPREAD",
    )


def _inputs_fingerprint(files: list[str]) -> list[list]:
    """Identity of a shard's input files for checkpoint staleness:
    (basename, bytes) pairs.  A shard checkpointed over DIFFERENT input
    files (e.g. the corpus grew and the file groups shifted) must not
    be silently reused just because the pipeline config matched."""
    return [[os.path.basename(f), os.path.getsize(f)] for f in files]


# mention rows per write task: coalesces output files (hundreds of tiny
# parquet files slow the write and every reader) and sizes each task's
# relations/linking/partials batch.  Small enough that write tasks run
# on the free CPUs while NER still runs, so one small bundle is left
# after the last NER block (~5 tasks per 20k pages).
_ROWS_PER_WRITE = 50_000

# layout version of a mentions shard and its parts (which files a write
# task leaves), part of the shard config: a shard written under another
# layout is recomputed, not reused without its parts
_SHARD_LAYOUT = 1

_PART_KINDS = ("linked", "surfaces", "triples")


class _ShardSink(Datasink):
    """Writes one mentions shard: per write task, its mention rows under
    the shard directory and, under the shard's parts directory, their
    linked triples and the two raw-key partial tables (surface counts,
    triple counts with provenance).  Every file is named by the task
    index, so a retried task overwrites its own files."""

    def __init__(self, mentions_dir: str, parts_dir: str):
        self.mentions_dir = mentions_dir
        self.parts_dir = parts_dir

    @property
    def min_rows_per_write(self) -> int:
        return _ROWS_PER_WRITE

    def write(self, blocks, ctx) -> int:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return 0
        mentions = pa.concat_tables(tables)
        # plain tasks with a cached per-process linker (no actor pool;
        # see linking.default_linker)
        linked = link_triples(extract_relations(mentions))
        name = f"{ctx.task_idx:05d}.parquet"
        pq.write_table(mentions, os.path.join(self.mentions_dir, f"part-{name}"))
        for kind, table in zip(
            _PART_KINDS, (linked, count_surfaces(mentions), count_triples(linked))
        ):
            pq.write_table(table, os.path.join(self.parts_dir, f"{kind}-{name}"))
        return mentions.num_rows


def _make_mentions_producer(group: list[str], cfg: KGPipelineConfig, parts_dir: str):
    def produce(path):
        ds = read_pages(group, cfg.lang_allow)
        out = build_mentions(ds, cfg)
        out.write_datasink(_ShardSink(path, parts_dir))
        stats = _trim_stats(out)
        # the finished plan is cyclic garbage that keeps the NER actor
        # (and its CPU) alive until the cyclic GC next runs: a NER
        # dataset started right after waited ~20 s for it (2-CPU
        # session, back-to-back 20k-page builds)
        del ds, out
        gc.collect()
        return {"input_files": group, "dataset_stats": stats}

    return produce


def _run_shard(out_root: str, name: str, files: list[str], cfg: KGPipelineConfig) -> dict:
    """Run (or reuse) mentions shard ``name`` over ``files``: mention
    rows under ``mentions/<name>/``, its parts under ``parts/<name>/``
    (outside ``mentions/``, whose every entry is a shard)."""
    parts_dir = os.path.join(out_root, "parts", name)
    return checkpoint.run_stage(
        os.path.join(out_root, "mentions", name),
        {
            "stage": "mentions",
            "config": {
                **cfg.fingerprint(),
                "inputs": _inputs_fingerprint(files),
                "layout": _SHARD_LAYOUT,
            },
        },
        _make_mentions_producer(files, cfg, parts_dir),
        parts=parts_dir,
    )


def _finished_shards(out_root: str, cfg: KGPipelineConfig) -> list[tuple[str, dict]]:
    """``(shard dir name, manifest)`` of every finished mentions shard
    under ``out_root``, sorted by name.  A shard of another layout has
    no usable parts: it is recomputed from its recorded input files.  A
    finished shard whose manifest cannot be read is an error: skipping
    it would drop its mentions from the graph."""
    root = os.path.join(out_root, "mentions")
    shards = []
    if os.path.isdir(root):
        for name in sorted(os.listdir(root)):
            if not checkpoint.is_done(os.path.join(root, name)):
                continue
            try:
                with open(os.path.join(root, name, "manifest.json")) as f:
                    m = json.load(f)
            except (OSError, json.JSONDecodeError) as e:
                raise ValueError(
                    f"mentions shard {name} under {out_root} is finished but its "
                    f"manifest cannot be read ({e}): delete the shard directory "
                    "and ingest its pages again"
                ) from e
            if m.get("config", {}).get("layout") != _SHARD_LAYOUT:
                files = m.get("input_files") or []
                if not files or not all(map(os.path.isfile, files)):
                    raise ValueError(
                        f"mentions shard {name} under {out_root} predates shard "
                        f"layout {_SHARD_LAYOUT} and its input files are gone: "
                        "rebuild the KG from its pages"
                    )
                m = _run_shard(out_root, name, files, cfg)
            shards.append((name, m))
    return shards


def _drop_stale_shards(out_root: str, n_shards: int) -> None:
    """Remove every ``shard-<k>`` (and its parts) that no current file
    group names, e.g. ``shard-1`` of an earlier run with more shards:
    the tail merges every finished shard, so it would count those pages
    twice.  Delta shards (``shard-delta-*``) are kept."""
    root = os.path.join(out_root, "mentions")
    if not os.path.isdir(root):
        return
    for name in os.listdir(root):
        k = name.removeprefix("shard-")
        if k.isdigit() and int(k) >= n_shards:
            shutil.rmtree(os.path.join(root, name))
            shutil.rmtree(os.path.join(out_root, "parts", name), ignore_errors=True)


def run_kg_pipeline(pages_path: str, out_root: str, cfg: KGPipelineConfig | None = None) -> dict:
    """Run (or resume) the full pipeline; returns per-stage manifests."""
    cfg = cfg or KGPipelineConfig()
    os.makedirs(out_root, exist_ok=True)
    summary: dict = {}

    # --- stage 1: mentions + per-shard parts (sharded + resumable) -----
    files = _pages_files(pages_path)
    # data-aware shuffle parallelism: post-combiner volume tracks input
    # volume, so size the reduce partitions from the pages bytes we can
    # see (capped by cluster size in sizing.bytes_scaled_partitions)
    input_bytes = sum(os.path.getsize(f) for f in files)
    reduce_parts = cfg.resolved_reduce_partitions(input_bytes)
    n_shards = max(1, min(cfg.shards, len(files)))
    groups = [files[i::n_shards] for i in range(n_shards)]
    _drop_stale_shards(out_root, n_shards)
    shard_manifests = [
        _run_shard(out_root, f"shard-{k}", group, cfg)
        for k, group in enumerate(groups)
    ]
    summary["mentions"] = {
        "shards": len(shard_manifests),
        "rows": sum(m["total_rows"] for m in shard_manifests),
        "wall_sec": sum(m.get("wall_sec", 0) for m in shard_manifests),
    }

    summary.update(_run_downstream(out_root, cfg, reduce_parts))
    return summary


def run_kg_delta(delta_pages, out_root: str, cfg: KGPipelineConfig | None = None) -> dict:
    """Ingest a NEW crawl batch into an existing KG ``out_root``.

    NER, relations and linking run over the delta pages ONLY (a fresh
    mentions shard named from the delta's input-file identity, so the
    same batch re-ingested is a checkpoint no-op); the downstream
    stages (linked, canonicalization, edges, nodes) then merge the
    stored parts of ALL shards — their checkpoints embed the mentions
    lineage, so the new shard marks them stale automatically.  The
    result is bit-identical to a full recompute over base ∪ delta
    (canonicalization is global: a delta mention can merge two
    previously-distinct surface clusters, so the canon map is rebuilt
    from every shard's surface counts and every shard's triple partials
    are rewritten again; the per-page work stays delta-sized).

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
    shard = f"shard-delta-{tag}"
    manifest = _run_shard(out_root, shard, files, cfg)
    summary = {
        "mentions": {
            "shards": 1,
            "rows": manifest["total_rows"],
            "wall_sec": manifest.get("wall_sec", 0),
        }
    }
    # downstream shuffle parallelism: size from the full corpus seen so
    # far (the delta's input files, and the mentions bytes of every
    # other shard)
    input_bytes = sum(s for _, s in inputs) + sum(
        m.get("total_bytes", 0)
        for name, m in _finished_shards(out_root, cfg)
        if name != shard
    )
    reduce_parts = cfg.resolved_reduce_partitions(input_bytes)
    summary.update(_run_downstream(out_root, cfg, reduce_parts))
    return summary


# layout version of the downstream checkpoints (schema or column meaning,
# e.g. which doc ids edge provenance keeps), part of their config: a
# stage written under another layout is recomputed, not reused
_TAIL_LAYOUT = 4

# Parquet bytes of all shards' triple partials (as their manifests
# record them) under which the edges stage merges them on the driver.
# Distinct triples grow with the corpus, so above it the edge reduce
# stays a distributed keyed exchange.
_DRIVER_MERGE_BYTES = 64 << 20

_EDGE_KEY = ["subj_canon", "pred", "obj_canon"]
_ENDPOINT_COLS = [
    "subj", "obj", "subj_label", "obj_label", "subj_qid", "obj_qid", "count",
]


def _read_parts(paths: list[str], schema: pa.Schema) -> pa.Table:
    """Part files -> one Arrow table on the driver (typed when empty)."""
    return pads.dataset(paths, schema=schema, format="parquet").to_table()


def _sum_surfaces(counts: pa.Table) -> pa.Table:
    """Every write task's ``(text, label, count)`` rows -> one row per
    distinct surface, sorted."""
    summed = counts.group_by(["text", "label"]).aggregate([("count", "sum")])
    return (
        summed.select(["text", "label", "count_sum"])
        .rename_columns(SURFACE_COUNTS_SCHEMA.names)
        .sort_by([("text", "ascending"), ("label", "ascending")])
    )


def _reduce_nodes(mention_partials: pa.Table, triple_partials, canon_map: dict) -> pa.Table:
    """The mention node partials + the ambiguous endpoints of each
    triple-partial table (weighted by ``count``) -> the node table."""
    endpoints = [canonize_triple_endpoints(t, canon_map) for t in triple_partials]
    return reduce_nodes(pa.concat_tables([mention_partials, *endpoints]))


def _edges_exchange(paths: list[str], canon_map: dict, reduce_parts: int):
    """The edges above the bound: triple partials -> canon rewrite ->
    keyed exchange on the edge key -> sort, all distributed."""
    import ray.data as rd

    # imported here, not at module top, so importing this module does
    # not load the join stages
    from gliner_cpp_ray.stages.joins import keyed_exchange

    partial = (
        rd.read_parquet(paths, file_extensions=["parquet"])
        if paths
        else rd.from_arrow(TRIPLE_PARTIALS_SCHEMA.empty_table())
    ).map_batches(
        rewrite_partials_to_canon,
        fn_kwargs={"canon_map": canon_map},
        batch_format="pyarrow",
    )
    # the repartition COALESCES the partial stream so the all-to-all
    # shuffles a handful of blocks, not hundreds of slivers (measured
    # 10x on the stage wall time at 2M pages)
    return keyed_exchange(
        partial.repartition(reduce_parts), _EDGE_KEY, reduce_edge_bucket, reduce_parts,
    ).sort(_EDGE_KEY)


def _run_downstream(out_root: str, cfg: KGPipelineConfig, reduce_parts: int) -> dict:
    """Stages 2-5 (linked, canon, edges, nodes) over the parts of every
    finished mentions shard under ``out_root``.  Checkpoint configs embed
    the mentions lineage: any change to the mention set re-runs them."""
    shards = _finished_shards(out_root, cfg)
    stage_cfg = {
        **cfg.fingerprint(),
        "mentions": [
            [name, m.get("total_rows", 0), m.get("total_bytes", 0)]
            for name, m in shards
        ],
        "tail": _TAIL_LAYOUT,
    }
    parts = {kind: [] for kind in _PART_KINDS}
    for name, m in shards:
        shard_dir = os.path.join(out_root, "mentions", name)
        for entry in m.get("parts", []):
            kind = os.path.basename(entry["file"]).split("-", 1)[0]
            parts[kind].append(
                (name, os.path.normpath(os.path.join(shard_dir, entry["file"])), entry["bytes"])
            )

    def paths(kind):
        return [p for _, p, _ in parts[kind]]

    summary: dict = {}

    def run(stage, producer):
        summary[stage] = checkpoint.run_stage(
            os.path.join(out_root, stage), {"stage": stage, "config": stage_cfg}, producer
        )

    # --- stage 2: linked rows, written by the shards ------------------
    def produce_linked(path):
        for name, src, _ in parts["linked"]:
            os.link(src, os.path.join(path, f"{name}-{os.path.basename(src)}"))
        return {"input": "parts"}

    run("linked", produce_linked)

    # --- stage 3: canon map + mention node partials --------------------
    canon_dir = os.path.join(out_root, "canon")
    canon_pkl = os.path.join(canon_dir, "canon_map.pkl")
    mention_nodes = os.path.join(canon_dir, "mention_nodes.parquet")

    def produce_canon(path):
        pairs, canon_map, partials = resolve_surfaces(
            _sum_surfaces(_read_parts(paths("surfaces"), SURFACE_COUNTS_SCHEMA))
        )
        pq.write_table(partials, mention_nodes)
        with open(canon_pkl, "wb") as f:
            pickle.dump(canon_map, f)
        return {"n_pairs": pairs.num_rows, "n_canon": len(set(canon_map["qid"].values()))}

    run("canon", produce_canon)
    with open(canon_pkl, "rb") as f:
        canon_map = pickle.load(f)

    # --- stage 4: edges (canon rewrite -> reduce -> key sort) ---------
    def produce_edges(path):
        if sum(b for _, _, b in parts["triples"]) < _DRIVER_MERGE_BYTES:
            partial = rewrite_partials_to_canon(
                _read_parts(paths("triples"), TRIPLE_PARTIALS_SCHEMA), canon_map
            )
            pq.write_table(reduce_edges(partial), os.path.join(path, "edges.parquet"))
            return {"input": "parts", "merge": "driver"}
        edges = _edges_exchange(paths("triples"), canon_map, reduce_parts)
        edges.write_parquet(path)
        return {"input": "parts", "merge": "exchange", "dataset_stats": _trim_stats(edges)}

    run("edges", produce_edges)

    # --- stage 5: nodes ----------------------------------------------
    def produce_nodes(path):
        # one scan over every part file, one batch at a time: each
        # batch's endpoint partials are bounded by the vocabulary, the
        # triple partials together are not
        scan = pads.dataset(
            paths("triples"), schema=TRIPLE_PARTIALS_SCHEMA, format="parquet"
        ).to_batches(columns=_ENDPOINT_COLS)
        nodes = _reduce_nodes(
            pq.read_table(mention_nodes),
            (pa.Table.from_batches([b]) for b in scan),
            canon_map,
        )
        pq.write_table(nodes, os.path.join(path, "nodes.parquet"))
        return {"input": "parts"}

    run("nodes", produce_nodes)
    return summary
