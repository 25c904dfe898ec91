"""Entity-resolution survivorship — golden records from near-dup pairs.

The master-data-management (MDM) step that closes the entity-resolution
loop: fuzzy matching (``dedup.edit_distance_pairs``) finds LINKS,
connected components (``graph.connected_components``) turn links into
CLUSTERS, and survivorship picks one golden value per field per cluster
— the relational-table analog of the KG canonicalization chain
(surface groupby → union-find → canon rewrite, stages/canonicalize.py),
exposed as a reusable operator over any keyed records table.

Survivorship rules here are deterministic aggregates (min for names —
lexicographic stability; max for measures — "best known value"; member
count for audit), so the whole chain is exactly SQL-replicable.

Scale shape: two bucketed joins map name pairs to key pairs (a blocking
column, when given, filters them); ``graph.connected_components`` labels
the linked keys with per-block union-find forests merged on the driver
(one row per linked key and block, never one per pair); one bucketed
LEFT join attaches labels back to the full records table (unmatched
records form singleton clusters via coalesce), and one composite
grouped reduce emits golden rows.  Every exchange is key- or
pair-bounded.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def golden_records(records_ds, pairs_ds, key_col: str, match_col: str,
                   take_min: list[str], take_max: list[str],
                   records_schema: pa.Schema, block_col: str | None = None,
                   n_buckets: int | None = None):
    """``records_ds``: keyed table (``key_col`` int64, ``match_col``
    string, value columns).  ``pairs_ds``: near-dup match pairs
    ``(<match_col>_a, <match_col>_b)`` (both present in records).

    ``block_col``: optional int64 BLOCKING column — a fuzzy-name link
    only merges records that agree on it (nation, zip prefix, host...).
    Blocking is the standard MDM lever against transitive-chain
    collapse: sequentially-numbered surfaces chain every record into
    one mega-cluster through distance-1 steps; requiring block equality
    snips the chain at realistic boundaries (and bounds the SQL
    oracle's closure volume).

    -> Dataset(cluster_id, min_<c>..., max_<c>..., n_members): one
    golden row per duplicate cluster, ``cluster_id`` = min member key;
    records without any surviving match form singleton clusters.

    ``records_schema`` is required: the records plan typically ends in
    maps whose schema probe is cheap, but the joins below need static
    column types either way (see bucketed_hash_join).
    """
    import ray.data as rd

    from gliner_cpp_ray.stages.graph import connected_components
    from gliner_cpp_ray.stages.joins import bucketed_hash_join, keyed_exchange
    from gliner_cpp_ray.stages.sizing import default_buckets

    # consumed twice (match lookup + final label join): materialize
    # once, and rows-scale the bucket count (the pagerank rationale:
    # ~5 hash exchanges each pay a per-group fixed cost, so small
    # record sets must not fan out to per-CPU × CPUs groups)
    records_ds = records_ds.materialize()
    if n_buckets is None:
        n_buckets = max(
            8, min(default_buckets(None), records_ds.count() // 250_000)
        )
    n_buckets_out = default_buckets(n_buckets)
    a_col, b_col = f"{match_col}_a", f"{match_col}_b"
    pair_schema = pa.schema([(a_col, pa.string()), (b_col, pa.string())])
    look_cols = [match_col, key_col] + ([block_col] if block_col else [])
    lookup = records_ds.map_batches(
        lambda t: t.select(look_cols), batch_format="pyarrow"
    )

    def keyed_side(pairs, side_col, out_key, left_schema):
        blk = [f"__blk_{out_key}"] if block_col else []
        return bucketed_hash_join(
            pairs,
            lookup.map_batches(
                lambda t, c=side_col, k=out_key: t.rename_columns(
                    [c, k, *blk]
                ),
                batch_format="pyarrow",
            ),
            on=side_col,
            n_buckets=n_buckets,
            left_schema=left_schema,
            right_schema=pa.schema(
                [(side_col, pa.string()), (out_key, pa.int64())]
                + [(b, pa.int64()) for b in blk]
            ),
        )

    mid_schema = pa.schema(
        list(pair_schema)
        + [("ka", pa.int64())]
        + ([("__blk_ka", pa.int64())] if block_col else [])
    )
    key_pairs = keyed_side(
        keyed_side(pairs_ds, a_col, "ka", pair_schema), b_col, "kb", mid_schema
    )
    if block_col:
        key_pairs = key_pairs.map_batches(
            lambda t: t.filter(
                pa.compute.equal(t.column("__blk_ka"), t.column("__blk_kb"))
            ),
            batch_format="pyarrow",
        )
    labels = connected_components(key_pairs, "ka", "kb")

    labeled = bucketed_hash_join(
        records_ds,
        rd.from_arrow(labels.rename_columns([key_col, "__label"])),
        on=key_col,
        how="left",
        n_buckets=n_buckets,
        left_schema=records_schema,
        right_schema=pa.schema([(key_col, pa.int64()), ("__label", pa.int64())]),
    )

    def cluster_of(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cl = pc.coalesce(
            t.column("__label").cast(pa.int64()), t.column(key_col)
        )
        return t.drop_columns(["__label"]).append_column("cluster_id", cl)

    def survive(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("cluster_id", sort=False)
        outs = [grp.size().rename("n_members").astype(np.int64)]
        for c in take_min:
            outs.append(grp[c].min().rename(f"min_{c}"))
        for c in take_max:
            outs.append(grp[c].max().rename(f"max_{c}"))
        return pd.concat(outs, axis=1).reset_index()

    return keyed_exchange(
        labeled.map_batches(cluster_of, batch_format="pyarrow"),
        "cluster_id", survive, n_buckets_out,
    )

