"""Snapshot diff: full-outer keyed comparison of two table versions.

The incremental-pipeline staple: a crawl (or any upstream table) is
re-materialized periodically, and downstream consumers want the DELTA —
which keys appeared, disappeared, or changed — instead of reprocessing
the whole snapshot.  Same shape as a CDC reconciliation or an
iceberg/delta snapshot compare.

``snapshot_diff(old, new, key, val_cols)`` emits one row per key whose
state differs between the snapshots:

* ``change = 'added'``   — key only in ``new``;
* ``change = 'removed'`` — key only in ``old``;
* ``change = 'changed'`` — key in both, any value column differs;
* keys with identical values are dropped (the diff is the output).

Value columns are emitted twice, as ``old_<col>`` / ``new_<col>``, with
the integer sentinel −1 where the side is absent — typed sentinels, not
NULLs, so the output schema is dtype-stable and hash-checkable against a
SQL ``FULL OUTER JOIN ... COALESCE(v, -1)`` transcription.

Scale shape: each side is projected to (key, vals); ONE
``keyed_cogroup`` co-locates both versions of every key, and the
per-bucket merge is a C-level pandas outer merge + vectorized compare.
Movement: |old| + |new| projected rows through one exchange — never a
broadcast, never a driver collect;
the output is delta-sized.  Int64 value columns only (web-corpus
measures): the sentinel coalesce keeps every output column int64.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from gliner_cpp_ray.stages.joins import keyed_cogroup


def snapshot_diff(old, new, key: str, val_cols: list[str],
                  n_buckets: int | None = None):
    """Dataset × Dataset -> Dataset(key, change, old_*, new_*).

    Both inputs must carry ``key`` (non-null) and every ``val_cols``
    column (int64); each side is assumed keyed (≤ 1 row per key — the
    output of ``latest_by_key`` or any grouped aggregate qualifies)."""
    # both sides carry exactly these int64 columns; passing the schema
    # keeps the (usually shuffled) inputs from executing twice
    side_schema = pa.schema([(c, pa.int64()) for c in [key, *val_cols]])

    out_schema = pa.schema(
        [(key, pa.int64()), ("change", pa.string())]
        + [(f"old_{c}", pa.int64()) for c in val_cols]
        + [(f"new_{c}", pa.int64()) for c in val_cols]
    )

    def merge(o: pd.DataFrame, n: pd.DataFrame) -> pa.Table:
        m = o.merge(n, on=key, how="outer", suffixes=("_o", "_n"),
                    indicator=True)
        state = m["_merge"].to_numpy()
        added = state == "right_only"
        removed = state == "left_only"
        out = {key: m[key].to_numpy(np.int64),
               "change": np.where(added, "added",
                                  np.where(removed, "removed", "changed"))}
        same = ~added & ~removed
        for c in val_cols:
            ov = m[f"{c}_o"].fillna(-1).to_numpy(np.int64)
            nv = m[f"{c}_n"].fillna(-1).to_numpy(np.int64)
            out[f"old_{c}"] = ov
            out[f"new_{c}"] = nv
            same &= ov == nv
        keep = ~same
        return pa.table(
            {k: pa.array(v[keep]) for k, v in out.items()}, schema=out_schema
        )

    return keyed_cogroup(
        old, new, key, merge, n_buckets, side_schema, side_schema
    )
