"""Per-layer tracing for the traced benchmark run.

Spans are recorded from the benchmark's own code, around the public entry
points of each NER layer; the package itself is not modified.  Spans stay
in memory and are reduced to per-layer self times and counts when the run
ends.  A layer's self time is its span durations minus the time its child
spans (and the tracer's own counting) cover.

The downstream KG layers (relations, linking, canonicalization) run in
Ray workers in the real pipeline, where no in-process patch reaches.  They
are measured by replaying each stage function in-process over the run's
own checkpoints (or, without Ray, over the run's own NER output), in as
many blocks as the pipeline scans them.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and their counting


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(tracer, args, out)``
        runs after the span closes, so counting is never layer time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                span.end = time.perf_counter()
                if count is not None:
                    count(self, args, out)
                return out
            finally:
                if not span.end:
                    span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += time.perf_counter() - span.start

        return traced

    def self_s(self, name: str) -> float:
        return sum(s.end - s.start - s.child_s for s in self.spans if s.name == name)


@contextmanager
def patched(targets):
    """Temporarily replace ``owner.attr`` for each (owner, attr, value);
    each attribute must be defined on ``owner`` itself."""
    saved = []
    try:
        for owner, attr, value in targets:
            if attr not in vars(owner):
                raise AttributeError(f"{owner!r} does not define {attr}")
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _over_threshold(logits, threshold: float) -> int:
    # the decoder's own test: sigmoid of the float32 logit >= threshold
    x = np.asarray(logits, dtype=np.float32)
    return int(np.count_nonzero(1.0 / (1.0 + np.exp(-x)) >= threshold))


def _count_split(tr: Tracer, args, out) -> None:
    tr.add("splitter.words", len(out[2]))


def _count_prepare(tr: Tracer, args, out) -> None:
    tr.add("processor.micro_batches", 1)
    tr.add("processor.real_words", int(out.text_lengths.sum()))
    tr.add("processor.padded_words", out.batch_size * out.num_words)


def _count_score(tr: Tracer, args, out) -> None:
    tr.add("scorer.logit_cells", int(np.asarray(out).size))


def _count_decode(tr: Tracer, args, out) -> None:
    # decode_span_batch(batch, texts, entities, logits, flat_ner, threshold, ...)
    tr.add("decoder.candidates", _over_threshold(args[3], args[5]))
    tr.add("decoder.kept", sum(len(spans) for spans in out))


def _count_ner(tr: Tracer, args, out) -> None:
    tr.add("ner.mentions", out.num_rows)


@contextmanager
def ner_traced(tracer: Tracer, stage):
    """Wrap the NER layers used by ``stage`` (a ``GlinerNERStage``)."""
    from gliner_cpp_ray.core import model as core_model
    from gliner_cpp_ray.core.model import GlinerModel
    from gliner_cpp_ray.core.processor import GlinerProcessor
    from gliner_cpp_ray.core.splitter import WordSplitter
    from gliner_cpp_ray.stages.ner import GlinerNERStage

    scorer_cls = type(stage.model.scoring)
    targets = [
        (WordSplitter, "__call__",
         tracer.wrap("splitter", WordSplitter.__call__, _count_split)),
        (GlinerProcessor, "prepare_batch",
         tracer.wrap("processor", GlinerProcessor.prepare_batch, _count_prepare)),
        (scorer_cls, "run", tracer.wrap("scorer", scorer_cls.run, _count_score)),
        (core_model, "decode_span_batch",
         tracer.wrap("decoder", core_model.decode_span_batch, _count_decode)),
        (GlinerModel, "inference", tracer.wrap("inference", GlinerModel.inference)),
        (GlinerNERStage, "__call__",
         tracer.wrap("ner", GlinerNERStage.__call__, _count_ner)),
    ]
    with patched(targets):
        yield


def traced_html_to_docs(tracer: Tracer, pages: pa.Table) -> pa.Table:
    from gliner_cpp_ray.stages.html_to_text import html_to_docs

    def count(tr, args, out):
        tr.add("html_to_text.docs", out.num_rows)

    return tracer.wrap("html_to_text", html_to_docs, count)(pages)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ner_layer_metrics(tr: Tracer) -> dict[str, float]:
    c = tr.counts.get
    return {
        "html_to_text.self_s": tr.self_s("html_to_text"),
        "html_to_text.docs": c("html_to_text.docs", 0),
        "splitter.self_s": tr.self_s("splitter"),
        "splitter.words": c("splitter.words", 0),
        "processor.self_s": tr.self_s("processor"),
        "processor.micro_batches": c("processor.micro_batches", 0),
        "processor.pad_ratio": _ratio(
            c("processor.real_words", 0), c("processor.padded_words", 0)
        ),
        "scorer.self_s": tr.self_s("scorer"),
        "scorer.logit_cells": c("scorer.logit_cells", 0),
        "decoder.self_s": tr.self_s("decoder"),
        "decoder.candidates": c("decoder.candidates", 0),
        "decoder.kept_ratio": _ratio(
            c("decoder.kept", 0), c("decoder.candidates", 0)
        ),
        "ner.assemble_self_s": tr.self_s("ner"),
        "ner.mentions": c("ner.mentions", 0),
    }


# --- downstream replay over a run's checkpoints ---------------------------

STAGES = ("mentions", "linked", "canon", "edges", "nodes")


def parquet_files(path: str) -> list[str]:
    return sorted(
        os.path.join(root, f)
        for root, _, names in os.walk(path)
        for f in names
        if f.endswith(".parquet")
    )


def read_stage(out_root: str, name: str, columns=None) -> pa.Table:
    return pads.dataset(parquet_files(os.path.join(out_root, name))).to_table(
        columns=columns
    )


def _blocks(tbl: pa.Table, n: int) -> list[pa.Table]:
    step = max(1, -(-tbl.num_rows // n))
    return [tbl.slice(o, step) for o in range(0, tbl.num_rows, step)] or [tbl]


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def replay_downstream(mentions: pa.Table, linked: pa.Table | None,
                      scan_blocks: int, reduce_parts: int) -> tuple[dict, dict]:
    """Run relations, linking and canonicalization in-process over
    ``mentions`` and ``linked`` (a run's checkpoints; ``linked=None``
    uses the replay's own linked triples).  Returns the per-layer metrics
    and, per KG stage, ``(wall_s, output table)`` of the replay."""
    import pandas as pd

    from gliner_cpp_ray.stages.canonicalize import (
        add_key_bucket, build_canon_map, canonize_mentions,
        canonize_triple_endpoints, collect_surface_pairs, reduce_edge_bucket,
        reduce_node_bucket, rewrite_triples_to_canon,
    )
    from gliner_cpp_ray.stages.linking import link_triples
    from gliner_cpp_ray.stages.relations import extract_relations

    def over_blocks(fn, tbl, *extra):
        return pa.concat_tables([fn(b, *extra) for b in _blocks(tbl, scan_blocks)])

    def bucket_reduce(tbl, keys, reduce_fn):
        df = add_key_bucket(tbl.to_pandas(), keys, reduce_parts)
        return pd.concat(
            [reduce_fn(g) for _, g in df.groupby("__bucket", sort=True)],
            ignore_index=True,
        )

    m = {}
    triples, m["relations.self_s"] = _timed(over_blocks, extract_relations, mentions)
    m["relations.triples"] = triples.num_rows
    own_linked, m["linking.self_s"] = _timed(over_blocks, link_triples, triples)
    both = pc.and_(
        pc.not_equal(own_linked.column("subj_qid"), ""),
        pc.not_equal(own_linked.column("obj_qid"), ""),
    )
    m["linking.linked_ratio"] = _ratio(pc.sum(both).as_py() or 0, own_linked.num_rows)
    if linked is None:
        linked = own_linked

    surface = mentions.select(["text", "label"])
    pairs, m["canon.pairs_self_s"] = _timed(over_blocks, collect_surface_pairs, surface)
    distinct, distinct_s = _timed(
        lambda: pairs.group_by(["norm_surface", "label", "qid"]).aggregate([])
    )
    m["canon.distinct_pairs"] = distinct.num_rows
    canon_map, m["canon.map_self_s"] = _timed(build_canon_map, distinct)

    partial, m["canon.rewrite_self_s"] = _timed(
        over_blocks, rewrite_triples_to_canon, linked, canon_map
    )
    edges, m["canon.reduce_edges_self_s"] = _timed(
        bucket_reduce, partial, ["subj_canon", "pred", "obj_canon"], reduce_edge_bucket
    )
    m["canon.combine_ratio"] = _ratio(len(edges), partial.num_rows)

    def canonize():
        return pa.concat_tables([
            over_blocks(canonize_mentions, surface, canon_map),
            over_blocks(canonize_triple_endpoints, linked, canon_map),
        ])

    node_partial, m["canon.canonize_self_s"] = _timed(canonize)
    nodes, m["canon.reduce_nodes_self_s"] = _timed(
        bucket_reduce, node_partial, ["canon_id"], reduce_node_bucket
    )
    stages = {
        "linked": (m["relations.self_s"] + m["linking.self_s"], own_linked),
        "canon": (m["canon.pairs_self_s"] + distinct_s + m["canon.map_self_s"], distinct),
        "edges": (m["canon.rewrite_self_s"] + m["canon.reduce_edges_self_s"],
                  pa.Table.from_pandas(edges, preserve_index=False)),
        "nodes": (m["canon.canonize_self_s"] + m["canon.reduce_nodes_self_s"],
                  pa.Table.from_pandas(nodes, preserve_index=False)),
    }
    return m, stages


def _manifest(path: str) -> dict:
    with open(os.path.join(path, "manifest.json")) as f:
        return json.load(f)


def _skew(manifest: dict) -> float:
    rows = [f.get("rows", 0) for f in manifest.get("files", [])]
    med = statistics.median(rows) if rows else 0
    return _ratio(max(rows, default=0), med)


def kg_metrics(out_root: str, summary: dict, wall_s: float, called_at: float,
               ner_wall_s: float) -> dict:
    """Stage walls, rows, bytes and files from the manifests of one
    ``run_kg_pipeline`` / ``run_kg_delta`` call that started at
    ``called_at`` (wall-clock seconds)."""
    shard_root = os.path.join(out_root, "mentions")
    shards = [os.path.join(shard_root, d) for d in sorted(os.listdir(shard_root))]
    checkpoints = shards + [os.path.join(out_root, s) for s in STAGES[1:]]
    reused = [
        p for p in checkpoints
        if os.path.getmtime(os.path.join(p, "_SUCCESS")) < called_at
    ]
    fresh_shards = [_manifest(p) for p in shards if p not in reused]
    manifests = {
        "mentions": {
            "wall_sec": summary["mentions"]["wall_sec"],
            "total_rows": summary["mentions"]["rows"],
            "total_bytes": sum(s["total_bytes"] for s in fresh_shards),
            "files": [f for s in fresh_shards for f in s["files"]],
        },
        **{s: summary[s] for s in STAGES[1:]},
    }
    m = {}
    for stage, man in manifests.items():
        m[f"kg.{stage}_s"] = man["wall_sec"]
        m[f"kg.{stage}_rows"] = man["total_rows"]
        m[f"kg.{stage}_bytes"] = man["total_bytes"]
        m[f"kg.{stage}_files"] = len(man["files"])
    m["kg.unaccounted_s"] = wall_s - sum(m[f"kg.{s}_s"] for s in STAGES)
    m["kg.mentions_overhead_s"] = m["kg.mentions_s"] - ner_wall_s
    m["kg.edges_skew"] = _skew(manifests["edges"])
    m["kg.nodes_skew"] = _skew(manifests["nodes"])
    m["checkpoint.reused"] = len(reused)
    return m


def inproc_kg_metrics(stages: dict, total_s: float, ner_wall_s: float) -> dict:
    """``kg.*`` of an in-process run of the KG stages: ``stages`` maps each
    stage to ``(wall_s, output table)``, and ``total_s`` is the wall of
    the whole run.  Bytes are Arrow bytes; no files are written, so the
    file counts, skews and reused checkpoints read 0."""
    m = {}
    for stage in STAGES:
        wall, tbl = stages[stage]
        m[f"kg.{stage}_s"] = wall
        m[f"kg.{stage}_rows"] = tbl.num_rows
        m[f"kg.{stage}_bytes"] = tbl.nbytes
        m[f"kg.{stage}_files"] = 0
    m["kg.unaccounted_s"] = total_s - sum(m[f"kg.{s}_s"] for s in STAGES)
    m["kg.mentions_overhead_s"] = m["kg.mentions_s"] - ner_wall_s
    m["kg.edges_skew"] = m["kg.nodes_skew"] = 0.0
    m["checkpoint.reused"] = 0
    return m
