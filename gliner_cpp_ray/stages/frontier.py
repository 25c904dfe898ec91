"""Distributed Pareto frontier (skyline query).

A row is on the frontier iff no other row strictly dominates it:
``q`` dominates ``p`` when ``q >= p`` on every criterion and ``q > p``
on at least one (all criteria MAXIMIZED; negate a column upstream to
minimize it).  Duplicate points dominate nothing and are all kept.

Scale shape: the frontier is a *mergeable* reduction —
``skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B))`` — so the whole
operator is ONE ``Dataset.aggregate`` whose accumulator is the local
frontier table: per-block vectorized skyline, tree merge of frontiers.
Data movement is O(tasks × |local frontier|), independent of corpus
size; for the 2-criterion case the local frontier is bounded by the
number of distinct values of the first criterion in the block.

The 2-D kernel is O(m log m) (sort + per-x group max + suffix max); the
k-D fallback is chunked pairwise dominance O(m²/chunk) vectorized in
numpy — safe because it only ever runs on frontier-sized inputs, never
on raw blocks (blocks are pre-shrunk by the 2-D kernel on the first two
criteria, a superset of the k-D frontier).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_I64_MIN = np.iinfo(np.int64).min


def skyline2_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the 2-criterion skyline (maximize both),
    strict dominance, duplicates kept.  O(m log m), fully vectorized:
    keep p iff p.y is the max y at p.x AND beats the best y over all
    strictly larger x."""
    if not len(x):
        return np.zeros(0, dtype=bool)
    ux, inv = np.unique(x, return_inverse=True)  # ux ascending
    my = np.full(len(ux), _I64_MIN, dtype=np.int64)
    np.maximum.at(my, inv, y)
    # best y among strictly greater x = suffix max of my, excluding self
    suf = np.empty(len(ux), dtype=np.int64)
    suf[-1] = _I64_MIN
    if len(ux) > 1:
        suf[:-1] = np.maximum.accumulate(my[::-1])[::-1][1:]
    return (y == my[inv]) & (my[inv] > suf[inv])


def skyline_nd_mask(cols: list[np.ndarray]) -> np.ndarray:
    """k-criterion skyline mask via chunked pairwise dominance.
    O(m²) work vectorized in ≤64k-cell numpy chunks — only ever called
    on frontier-sized candidate sets (see module docstring)."""
    m = len(cols[0])
    if m == 0:
        return np.zeros(0, dtype=bool)
    mat = np.stack(cols, axis=1)  # (m, k)
    keep = np.ones(m, dtype=bool)
    chunk = max(1, 65536 // max(m, 1))
    for s in range(0, m, chunk):
        block = mat[s : s + chunk]  # (c, k) candidates
        ge = (mat[None, :, :] >= block[:, None, :]).all(axis=2)  # q >= p
        gt = (mat[None, :, :] > block[:, None, :]).any(axis=2)  # q > p somewhere
        dominated = (ge & gt).any(axis=1)
        keep[s : s + chunk] = ~dominated
    return keep


def _skyline_mask(cols: list[np.ndarray]) -> np.ndarray:
    if len(cols) == 2:
        return skyline2_mask(cols[0], cols[1])
    # k > 2: no 2-D pre-shrink is sound (a k-D frontier point may be
    # dominated in any 2-D projection), so the pairwise kernel runs on
    # the full candidate set — which is only ever block-sized in
    # accumulate and frontier-sized in merge, never corpus-sized.
    return skyline_nd_mask(cols)


def pareto_frontier(ds, crit_cols: list[str], carry_cols: list[str]):
    """Frontier of ``ds`` maximizing every column in ``crit_cols``
    (int64 each); ``carry_cols`` ride along.  Returns a pyarrow Table
    (frontier-sized, small by construction).

    Single ``Dataset.aggregate`` — the accumulator is the running
    frontier as a dict of numpy arrays, merged by re-running the
    skyline kernel on the concatenation.
    """
    from ray.data.aggregate import AggregateFn

    out_cols = list(carry_cols) + list(crit_cols)

    def _empty():
        return {c: np.zeros(0, dtype=np.int64) for c in out_cols}

    def _shrink(acc: dict) -> dict:
        mask = _skyline_mask([acc[c] for c in crit_cols])
        return {c: acc[c][mask] for c in out_cols}

    def acc_block(acc: dict, block) -> dict:
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        merged = {
            c: np.concatenate(
                [acc[c], t.column(c).to_numpy(zero_copy_only=False).astype(np.int64)]
            )
            for c in out_cols
        }
        return _shrink(merged)

    def merge(a1: dict, a2: dict) -> dict:
        return _shrink({c: np.concatenate([a1[c], a2[c]]) for c in out_cols})

    agg = AggregateFn(
        init=lambda k: _empty(),
        merge=merge,
        accumulate_block=acc_block,
        name="pareto",
    )
    acc = ds.aggregate(agg)["pareto"]
    return pa.table({c: pa.array(acc[c], pa.int64()) for c in out_cols})


def pareto_frontier_reference(df: pd.DataFrame, crit_cols: list[str]) -> np.ndarray:
    """O(n²) brute-force keep-mask for tests."""
    vals = df[crit_cols].to_numpy().astype(np.int64)
    n = len(vals)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        ge = (vals >= vals[i]).all(axis=1)
        gt = (vals > vals[i]).any(axis=1)
        keep[i] = not (ge & gt).any()
    return keep


def grouped_pareto_frontier(ds, group_col: str, crit_cols: list[str],
                            carry_cols: list[str],
                            n_buckets: int | None = None):
    """PER-GROUP Pareto frontier (grouped skyline): a row survives iff
    no other row OF ITS GROUP strictly dominates it — 'best trade-offs
    per segment'.  Group values may be strings; criteria are int64,
    all maximized (negate upstream to minimize).

    Scale shape: the per-group frontier inherits the mergeability of
    the global one, so each block shrinks to its per-group local
    frontiers map-side (group count bounded), ONE group-hash exchange
    moves only frontier candidates, and a whole-bucket reduce re-runs
    the kernel per group.  Movement O(tasks × Σ_g |local frontier_g|),
    never corpus-scaled."""
    from gliner_cpp_ray.stages.joins import keyed_exchange

    out_cols = [group_col, *carry_cols, *crit_cols]

    def shrink(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df[out_cols]
        parts = []
        for _, g in df.groupby(group_col, sort=False):
            mask = _skyline_mask(
                [g[c].to_numpy(np.int64) for c in crit_cols]
            )
            parts.append(g.loc[mask])
        return pd.concat(parts, ignore_index=True)[out_cols]

    def combiner(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            shrink(t.to_pandas()), preserve_index=False
        )

    return keyed_exchange(
        ds.map_batches(combiner, batch_format="pyarrow"),
        [group_col], shrink, n_buckets,
    )
