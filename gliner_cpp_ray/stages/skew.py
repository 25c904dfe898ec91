"""Skew handling: salted two-phase aggregation + deterministic splits.

``salted_group_count``: a single hot key would route every row to one
reduce partition in a naive ``groupby(key)``.  Salting splits each key
into ``n_salts`` sub-keys for the wide first phase, then a tiny second
phase merges the per-salt partials — the hot key's load spreads over
``n_salts`` reducers.  (The KG pipeline's combiner-in-map_batches
achieves the same effect one step earlier; salting is the general tool
when per-batch combining isn't possible, e.g. exact distinct counts.)

``train_test_split``: deterministic hash-based assignment — stable
across runs/cluster sizes, no shuffle, SQL-reproducible (md5-based).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa


def salted_group_count(ds, key: str, n_salts: int = 8):
    """-> Dataset(key, n) via salted two-phase aggregation."""
    from ray.data.aggregate import Count, Sum

    def add_salt(t: pa.Table) -> pa.Table:
        salt = np.arange(t.num_rows, dtype=np.int64) % n_salts
        return t.append_column("__salt", pa.array(salt))

    phase1 = (
        ds.map_batches(add_salt, batch_format="pyarrow")
        .groupby([key, "__salt"])
        .aggregate(Count(alias_name="partial"))
    )
    return (
        phase1.groupby(key)
        .aggregate(Sum("partial", alias_name="n"))
    )


def split_threshold_hex(train_pct: int) -> str:
    """First-8-hex-digit threshold: hex-string < threshold ⇔ the leading
    32 bits of md5(id) fall in the train fraction.  Lexicographic
    compare of fixed-width lowercase hex == numeric compare, so the
    predicate reproduces exactly in SQL."""
    return format((train_pct * (1 << 32)) // 100, "08x")


def _split_of(ids, threshold_hex: str) -> list[str]:
    out = []
    for i in ids:
        h = hashlib.md5(str(i).encode()).hexdigest()
        out.append("train" if h[:8] < threshold_hex else "test")
    return out


def train_test_split(ds, id_col: str, train_pct: int = 80):
    """Adds a ``split`` column: md5(str(id))[:8] < threshold -> "train".

    Deterministic and shuffle-free; membership is a pure function of the
    id, so a resumed or re-partitioned run assigns identically.
    """
    th = split_threshold_hex(train_pct)

    def assign(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        return t.append_column("split", pa.array(_split_of(ids, th)))

    return ds.map_batches(assign, batch_format="pyarrow")


def dataset_mixture(ds, id_col: str, source_col: str, rates: dict[str, int],
                    default_pct: int = 0):
    """Deterministic weighted multi-source mixing: keep a row iff
    ``md5(str(id))[:8] < threshold(rates[source])`` — the standard
    training-mix recipe (e.g. 100% wiki, 50% books, 10% web) expressed
    as a pure per-row predicate.

    Like ``train_test_split``, membership is a function of the id
    alone: shuffle-free, stable across runs / partitionings / cluster
    sizes, resumable for free, and exactly reproducible in SQL.  At
    100 TB this is a streaming filter with zero data movement.

    pct >= 100 / pct <= 0 are handled as always-keep / always-drop
    rather than via the hex threshold: ``split_threshold_hex(100)`` is
    the 9-char ``'100000000'``, which an 8-char hex prefix compares
    against lexicographically (almost everything sorts ABOVE it), so
    the threshold form is only correct for 0 < pct < 100."""

    def rule(pct: int):
        if pct >= 100:
            return True
        if pct <= 0:
            return False
        return split_threshold_hex(pct)

    rules = {s: rule(int(p)) for s, p in rates.items()}
    drule = rule(int(default_pct))

    def keep(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        srcs = t.column(source_col).to_pylist()
        mask = []
        for i, s in zip(ids, srcs):
            r = rules.get(s, drule)
            if r is True or r is False:
                mask.append(r)
            else:
                mask.append(hashlib.md5(str(i).encode()).hexdigest()[:8] < r)
        return t.filter(pa.array(mask, pa.bool_()))

    return ds.map_batches(keep, batch_format="pyarrow")


def grouped_top_k(ds, group_col: str, order_col: str, id_col: str, k: int,
                  descending: bool = True, n_buckets: int | None = None):
    """Per-group top-k rows by VALUE (vs ``stratified_sample``'s
    hash-rank sample): the ``k`` rows of each group with the largest
    (or smallest) ``order_col``, ties broken by ascending ``id_col`` so
    the result is deterministic and SQL-replicable
    (``row_number() OVER (PARTITION BY g ORDER BY v DESC, id)``).

    Movement: a per-batch top-k combiner bounds the shuffle at
    tasks × groups × k rows regardless of corpus size; the shuffle
    groups by a hash bucket of the group key (whole groups co-locate)
    and one vectorized pandas pass takes the final k per group."""
    from gliner_cpp_ray.stages.joins import keyed_exchange
    from gliner_cpp_ray.stages.sizing import default_buckets

    n_buckets = default_buckets(n_buckets)
    asc = [True, not descending, True]
    by = [group_col, order_col, id_col]

    def top(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(by, ascending=asc)
            .groupby(group_col, sort=False)
            .head(k)
        )

    def combiner(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(top(t.to_pandas()), preserve_index=False)

    def take_k(g: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(top(g), preserve_index=False)

    return keyed_exchange(
        ds.map_batches(combiner, batch_format="pyarrow")
        .repartition(max(n_buckets, 8)),
        group_col, take_k, n_buckets,
    )


def global_top_k(ds, order_col: str, id_col: str, k: int,
                 descending: bool = True):
    """Global top-k rows by value, ties broken by ascending ``id_col``
    (``ORDER BY v DESC, id LIMIT k``).  Per-batch top-k combiner bounds
    the data leaving any task at k rows, so the final single-partition
    reduce sees tasks × k rows regardless of corpus size — no full
    sort, no corpus-sized collect."""
    by = [order_col, id_col]
    asc = [not descending, True]

    def top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=asc).head(k)

    def combiner(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(top(t.to_pandas()), preserve_index=False)

    return (
        ds.map_batches(combiner, batch_format="pyarrow")
        .repartition(1)  # tasks × k rows only
        # batch_size=None = whole block per batch: the single coalesced
        # block must reach one final top() call, or k rows per 1024-row
        # default batch would leak through
        .map_batches(top, batch_format="pandas", batch_size=None)
    )


def stratified_sample(ds, stratum_col: str, id_col: str, n_per_stratum: int,
                      n_buckets: int = 16):
    """Deterministic per-stratum sample: the ``n`` rows of each stratum
    with the smallest ``md5(str(id))`` — a hash-rank sample, so
    membership is a pure function of (stratum, id): stable across runs,
    partitionings and cluster sizes, and exactly reproducible in SQL
    (``row_number() OVER (PARTITION BY stratum ORDER BY md5(id), id)``).

    The per-stratum cap is the real webtext use case (e.g. at most N
    documents per language in a training mix).  Movement: one shuffle
    of (stratum-hash-bucket) groups; each bucket group holds whole
    strata, and a per-batch top-n combiner BEFORE the shuffle would cap
    per-bucket volume at tasks·n rows for corpus-scale strata."""

    def add_rank_key(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        hs = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return t.append_column("__h", pa.array(hs, pa.string()))

    def combiner(t: pa.Table) -> pa.Table:
        # per-batch top-n per stratum: bounds shuffle volume at
        # (batches × strata × n) rows regardless of corpus size
        df = t.to_pandas()
        df = (
            df.sort_values([stratum_col, "__h", id_col])
            .groupby(stratum_col, sort=False)
            .head(n_per_stratum)
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def take_n(g: pd.DataFrame) -> pa.Table:
        out = (
            g.sort_values([stratum_col, "__h", id_col])
            .groupby(stratum_col, sort=False)
            .head(n_per_stratum)
            .drop(columns="__h")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    from gliner_cpp_ray.stages.joins import keyed_exchange

    return keyed_exchange(
        ds.map_batches(add_rank_key, batch_format="pyarrow")
        .map_batches(combiner, batch_format="pyarrow")
        .repartition(max(n_buckets, 8)),
        stratum_col, take_n, n_buckets,
    )


def budget_capped_head(ds, key_cols: list[str], order_cols: list[str],
                       id_col: str, num: int = 1, den: int = 4,
                       add: int = 1, n_buckets: int | None = None):
    """Variable-k grouped selection — each key keeps its FIRST
    ``n*num//den + add`` rows under ORDER BY ``order_cols`` (ties by
    id), where n is the key's own row count: the crawl-budget /
    per-source quota primitive (big hosts get proportionally more
    slots, every host gets at least ``add``).  Unlike ``grouped_top_k``
    the cut is data-dependent per key.

    -> Dataset(*key_cols, id_col, seq, budget) for kept rows (seq is
    the row's 1-based ordinal, budget the key's cut).

    ONE composite-key-hash exchange; the per-bucket reduce computes
    ordinals AND per-run budgets from run lengths in a single
    vectorized pass — no per-key frames, no second join.
    """
    from gliner_cpp_ray.stages.joins import keyed_runs, run_starts

    if den < 1 or num < 0 or add < 0:
        raise ValueError("need den >= 1, num >= 0, add >= 0")

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        starts = np.flatnonzero(first)
        run_len = np.diff(np.append(starts, len(g)))
        length = np.repeat(run_len, run_len)
        budget = length * num // den + add
        seq = np.arange(len(g), dtype=np.int64) - run_starts(first) + 1
        keep = seq <= budget
        out = g.iloc[keep][[*key_cols, id_col]].reset_index(drop=True)
        out["seq"] = seq[keep]
        out["budget"] = budget[keep]
        return out

    return keyed_runs(ds, key_cols, [*order_cols, id_col], reduce_bucket,
                      n_buckets)
