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
    per-batch winners), then a second key-hash exchange co-locates the
    base with the key-bounded collapsed delta (side-tagged union) and a
    per-bucket vectorized isin-merge emits the new snapshot.  No driver
    state; tombstones travel as ordinary rows and die in the merge.
    """
    from gliner_cpp_ray.stages.joins import keyed_exchange

    out_cols = [key, *val_cols]

    latest = latest_by_key(delta, key, order_cols)

    def tag(op_expr):
        def fn(t: pa.Table) -> pa.Table:
            return t.select(out_cols).append_column("__op", op_expr(t))

        return fn

    base_t = base.map_batches(
        tag(lambda t: pa.array(np.full(t.num_rows, "", object), pa.string())),
        batch_format="pyarrow",
    )
    def delta_ops(t: pa.Table) -> pa.Array:
        ops = t.column(op_col).cast(pa.string())
        # "" is the internal base-side tag; a delta op of "" would be
        # silently treated as a base row — fail loudly instead
        import pyarrow.compute as pc

        if pc.any(pc.equal(ops, "")).as_py() or ops.null_count:
            raise ValueError(f"{op_col} must be non-empty, non-null strings")
        return ops

    delta_t = latest.map_batches(tag(delta_ops), batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        is_base = (g["__op"] == "").to_numpy()
        b, d = g[is_base], g[~is_base]
        if b[key].duplicated().any():
            raise ValueError("base snapshot has duplicate keys")
        kept_base = b[~b[key].isin(d[key])]
        upserts = d[d["__op"] != delete_op]
        return pd.concat([kept_base, upserts])[out_cols]

    # both sides share one schema (out_cols + __op), so their union is
    # a single keyed input
    return keyed_exchange(base_t.union(delta_t), key, merge, n_buckets)
