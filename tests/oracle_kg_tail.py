"""Per-block replay of the KG tail: the ORACLE for the canon map, node
table and edge table of ``gliner_cpp_ray.pipelines.kg``.

It runs the kept per-block stage functions over caller-given blocks and
merges their partials the way the distributed chain did before canon
pairs and nodes moved to the driver:

- canon: ``collect_surface_pairs`` per block -> distinct ->
  ``build_canon_map``;
- nodes: ``canonize_mentions`` + ``canonize_triple_endpoints`` per
  block -> ``add_key_bucket`` -> ``reduce_node_bucket`` per bucket ->
  sort by ``canon_id``;
- edges: ``rewrite_triples_to_canon`` per block -> ``add_key_bucket``
  -> ``reduce_edge_bucket`` per bucket -> sort by subject.

Keep it dumb and literal.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from gliner_cpp_ray.stages.canonicalize import (
    EDGES_SCHEMA,
    NODES_SCHEMA,
    add_key_bucket,
    build_canon_map,
    canonize_mentions,
    canonize_triple_endpoints,
    collect_surface_pairs,
    reduce_edge_bucket,
    reduce_node_bucket,
    rewrite_triples_to_canon,
)

EDGE_KEY = ["subj_canon", "pred", "obj_canon"]


def canon_oracle(mention_blocks: list[pa.Table]) -> tuple[pa.Table, dict]:
    """-> (distinct (norm_surface, label, qid) pairs, sorted; canon map)."""
    rows = set()
    for b in mention_blocks:
        p = collect_surface_pairs(b)
        rows.update(zip(*(p.column(c).to_pylist() for c in p.column_names)))
    keys = sorted(rows)
    pairs = pa.table(
        {
            name: pa.array([k[i] for k in keys], pa.string())
            for i, name in enumerate(("norm_surface", "label", "qid"))
        }
    )
    return pairs, build_canon_map(pairs)


def _bucket_reduce(partials: list[pa.Table], keys, reduce_fn, n_buckets, schema, sort_key):
    if not sum(p.num_rows for p in partials):
        return schema.empty_table()
    df = add_key_bucket(pa.concat_tables(partials).to_pandas(), keys, n_buckets)
    out = pd.concat(
        [reduce_fn(g) for _, g in df.groupby("__bucket", sort=True)],
        ignore_index=True,
    )
    return pa.Table.from_pandas(out, schema=schema, preserve_index=False).sort_by(
        [(k, "ascending") for k in sort_key]
    )


def nodes_oracle(mention_blocks, linked_blocks, canon_map, n_buckets=8) -> pa.Table:
    partials = [canonize_mentions(b, canon_map) for b in mention_blocks] + [
        canonize_triple_endpoints(b, canon_map) for b in linked_blocks
    ]
    return _bucket_reduce(
        partials, ["canon_id"], reduce_node_bucket, n_buckets, NODES_SCHEMA, ["canon_id"]
    )


def edges_oracle(linked_blocks, canon_map, n_buckets=8) -> pa.Table:
    partials = [rewrite_triples_to_canon(b, canon_map) for b in linked_blocks]
    return _bucket_reduce(
        partials, EDGE_KEY, reduce_edge_bucket, n_buckets, EDGES_SCHEMA, EDGE_KEY
    )
