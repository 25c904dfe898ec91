"""Latest-wins compaction (CDC / upsert semantics): one full row per
key — the row with the greatest (order, tie) value.

The crawl-refresh staple: a Common-Crawl-style pages table accumulates
one row per (url, warc_ts) fetch; downstream stages want exactly the
newest fetch per url.  Same shape as Kafka log compaction or an
iceberg/delta MERGE collapse.

Scale shape: a per-batch vectorized combiner keeps only each key's
in-batch winner FIRST (sort + boundary mask — no per-key Python), so
the single key-hash shuffle carries at most one row per (key, batch),
not one per version; the per-bucket reduce repeats the identical
combiner on the survivors.  Hot keys (a url refetched millions of
times) collapse inside every map task before they can skew the
exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _keep_latest(df: pd.DataFrame, key: str, order_cols: list[str]) -> pd.DataFrame:
    """Vectorized in-frame winner: sort by (key, *order) ascending and
    keep each key's LAST row — the greatest (order, tie) per key."""
    if not len(df):
        return df
    df = df.sort_values([key, *order_cols], kind="stable")
    keys = df[key].to_numpy()
    last = np.ones(len(df), dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    return df[last]


def latest_by_key(ds, key: str, order_cols: list[str],
                  n_buckets: int | None = None):
    """-> Dataset with every input column, one row per key: the row
    maximizing ``order_cols`` lexicographically (append a unique id as
    the final order column to make the winner deterministic)."""
    from gliner_cpp_ray.stages.joins import keyed_exchange

    def combine(t: pa.Table) -> pa.Table:
        df = _keep_latest(t.to_pandas(), key, order_cols)
        return pa.Table.from_pandas(df, preserve_index=False)

    return keyed_exchange(
        ds.map_batches(combine, batch_format="pyarrow"), key,
        lambda g: _keep_latest(g, key, order_cols), n_buckets,
    )

def apply_cdc_delta(base, delta, key: str, val_cols: list[str],
                    op_col: str, order_cols: list[str],
                    delete_op: str = "delete",
                    n_buckets: int | None = None):
    """MERGE INTO with tombstones — apply a CDC delta stream to a
    snapshot: each key's LATEST delta op (greatest ``order_cols``, ties
    included) wins; op ``delete_op`` drops the key, any other op
    upserts its ``val_cols``; keys without a delta keep their base row.
    The incremental-view / lakehouse-maintenance primitive one step
    past ``latest_by_key`` (which collapses a log but cannot delete).

    ``base``: Dataset(key, *val_cols) — one row per key (duplicate base
    keys raise in the merge).
    ``delta``: Dataset(key, *val_cols, op_col, *order_cols).

    -> Dataset(key, *val_cols), the new snapshot.

    Scale shape: the delta collapses through ``latest_by_key`` (hot
    keys die in its map-side combiner; one key-hash exchange over
    per-batch winners), then one ``keyed_cogroup`` co-locates the base
    with the key-bounded collapsed delta and a per-bucket vectorized
    isin-merge emits the new snapshot.  No driver state; tombstones
    travel as ordinary rows and die in the merge.
    """
    import pyarrow.compute as pc

    from gliner_cpp_ray.stages.joins import arrow_schema, keyed_cogroup

    out_cols = [key, *val_cols]
    # types from the delta's own plan: the base (and the collapsed
    # delta) usually end in a shuffle that a schema probe would execute
    d_schema = arrow_schema(delta)
    base_schema = pa.schema([d_schema.field(c) for c in out_cols])

    def checked_ops(t: pa.Table) -> pa.Table:
        ops = t.column(op_col).cast(pa.string())
        if pc.any(pc.equal(ops, "")).as_py() or ops.null_count:
            raise ValueError(f"{op_col} must be non-empty, non-null strings")
        return t.select(out_cols).append_column(op_col, ops)

    latest = latest_by_key(delta, key, order_cols).map_batches(
        checked_ops, batch_format="pyarrow"
    )

    def merge(b: pd.DataFrame, d: pd.DataFrame) -> pd.DataFrame:
        if b[key].duplicated().any():
            raise ValueError("base snapshot has duplicate keys")
        kept_base = b[~b[key].isin(d[key])]
        upserts = d.loc[d[op_col] != delete_op, out_cols]
        return pd.concat([kept_base, upserts])

    return keyed_cogroup(
        base, latest, key, merge, n_buckets, base_schema,
        base_schema.append(pa.field(op_col, pa.string())),
    )
