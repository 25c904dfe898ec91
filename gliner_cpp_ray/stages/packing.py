"""Sequence packing: assign documents to fixed token-budget training
sequences via a DISTRIBUTED PREFIX SUM.

Training-data pipelines pack variable-length documents into fixed-size
model sequences.  The deterministic contiguous-chunk rule used here:
order documents by id and start a new pack every time the running token
total crosses the budget — i.e. ``pack_id = exclusive_prefix_sum(
n_tokens) // budget``.  A pure function of the global document order,
so it is stable across runs and cluster sizes and exactly replicable in
SQL as ``sum(n) OVER (ORDER BY id ROWS UNBOUNDED PRECEDING AND 1
PRECEDING) // budget``.

The prefix sum is the classic two-level scan, expressed in Ray Data:

1. ORDER-PRESERVING bucketing: ``bucket = doc_id // span`` (range
   partitioning on the id — bucket k holds ids strictly before bucket
   k+1), with ``span`` sized so bucket count ≈ a small multiple of the
   cluster CPUs.
2. per-bucket token sums: one small ``groupby(bucket).sum`` — ONE row
   per bucket reaches the driver (~10·CPUs rows, never
   corpus-proportional).
3. driver exclusive scan over the bucket sums -> per-bucket offsets,
   broadcast back as task-closure state.
4. per-bucket finish: sort the bucket by id, local exclusive cumsum +
   the bucket's offset, divide by the budget.  Vectorized numpy per
   bucket; one shuffle (the groupby) total.

At 10^12 documents the driver holds one int per bucket; a second scan
level (buckets of buckets) extends the same construction if bucket
count itself ever needs to exceed driver memory.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from gliner_cpp_ray.stages.sizing import cluster_cpus


def pack_sequences(counts_ds, budget: int = 512, id_col: str = "doc_id",
                   count_col: str = "n_tokens",
                   n_buckets: int | None = None):
    """Dataset(id, n_tokens) -> Dataset(id, n_tokens, pack_id).

    ``pack_id = (sum of n_tokens over all ids < this id) // budget``.
    Input ids must be non-negative integers (web-corpus doc ids); the
    range is taken from one cheap ``max`` aggregate."""
    if n_buckets is None:
        n_buckets = max(8, 10 * cluster_cpus())

    counts = counts_ds.materialize()  # consumed twice: sums + finish
    max_id = counts.max(id_col)
    if max_id is None:  # empty input
        return counts.map_batches(
            lambda t: t.append_column(
                "pack_id", pa.array([], pa.int64())
            ),
            batch_format="pyarrow",
        )
    span = max(1, (int(max_id) + n_buckets) // n_buckets)

    def add_bucket(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return t.append_column(
            "__bucket", pa.array(ids // span, pa.int64())
        )

    bucketed = counts.map_batches(add_bucket, batch_format="pyarrow")

    from ray.data.aggregate import Sum

    sums = (
        bucketed.groupby("__bucket")
        .aggregate(Sum(count_col, alias_name="s"))
        .to_pandas()  # ONE row per bucket — bounded by n_buckets
        .sort_values("__bucket")
    )
    # driver exclusive scan: offset of bucket k = total tokens before it
    offsets = dict(
        zip(
            sums["__bucket"].astype(np.int64),
            np.concatenate([[0], sums["s"].to_numpy(np.int64).cumsum()[:-1]]),
        )
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        nt = g[count_col].to_numpy(np.int64)
        excl = np.concatenate([[0], nt.cumsum()[:-1]])
        excl += int(offsets[int(g["__bucket"].iloc[0])])
        out = g.drop(columns="__bucket").copy()
        out["pack_id"] = (excl // budget).astype(np.int64)
        return out

    return bucketed.groupby("__bucket").map_groups(
        finish, batch_format="pandas"
    )


def global_shuffle_positions(ds, id_col: str = "doc_id",
                             n_buckets: int | None = None):
    """Deterministic global shuffle for training-data ordering:
    Dataset(id, ...) -> Dataset(id, ..., pos) where ``pos`` is the row's
    rank under the order ``(md5(str(id))[:16] as u64, id)``.

    A training pipeline wants the corpus in a pseudorandom order that is
    (a) uniform, (b) identical across runs / partitionings / cluster
    sizes, and (c) resumable mid-epoch — properties
    ``Dataset.random_shuffle`` does not give.  Hash-rank order gives all
    three, and the explicit ``pos`` column makes the order a checkable
    artifact (``ORDER BY substr(md5(id),1,16), id`` in SQL) rather than
    a side effect.

    Rank is the same two-level scan as ``pack_sequences``, keyed on the
    hash instead of the id: the top ``k`` hash bits range-partition rows
    into order-preserving buckets, one small groupby counts each bucket
    (n_buckets rows to the driver, never corpus rows), the driver's
    exclusive scan yields per-bucket offsets, and each bucket sorts
    locally and adds its offset.  One shuffle; the corpus-proportional
    intermediate lives in the (spillable) object store — inherent to any
    global shuffle — while the driver holds one int per bucket."""
    if n_buckets is None:
        n_buckets = max(8, 10 * cluster_cpus())
    k = max(3, int(np.ceil(np.log2(n_buckets))))
    shift = np.uint64(64 - k)

    import hashlib

    def add_hash(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        h = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:16], 16)
                for i in ids
            ),
            np.uint64,
            len(ids),
        )
        return t.append_column(
            "__h", pa.array(h, pa.uint64())
        ).append_column("__bucket", pa.array((h >> shift).astype(np.int64)))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow").materialize()

    from ray.data.aggregate import Count

    counts = (
        hashed.groupby("__bucket")
        .aggregate(Count(alias_name="n"))
        .to_pandas()  # ONE row per hash-range bucket
        .sort_values("__bucket")
    )
    offsets = dict(
        zip(
            counts["__bucket"].astype(np.int64),
            np.concatenate(
                [[0], counts["n"].to_numpy(np.int64).cumsum()[:-1]]
            ),
        )
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__h", id_col])
        out = g.drop(columns=["__h", "__bucket"]).copy()
        base = int(offsets[int(g["__bucket"].iloc[0])])
        out["pos"] = np.arange(base, base + len(g), dtype=np.int64)
        return out

    return hashed.groupby("__bucket").map_groups(
        finish, batch_format="pandas"
    )


def global_order_rank(ds, val_col: str, id_col: str,
                      n_buckets: int | None = None):
    """Exact global 1-based rank under ORDER BY (val, id): Dataset(...)
    -> (Dataset(..., rank), n_total).  The two-level value-range scan:
    order-preserving buckets ``(val - min) // span``, one count row per
    bucket to the driver, exclusive scan -> per-bucket offsets, local
    sort + offset per bucket.  Value skew concentrates rank work like
    any range partitioner; uniform-ish measures spread evenly, and a
    single-value column degrades to one bucket (documented remedy: a
    finer pre-histogram, not a new shape)."""
    if n_buckets is None:
        n_buckets = max(8, 10 * cluster_cpus())

    data = ds.materialize()  # consumed twice: min/max + counts/finish
    lo, hi = data.min(val_col), data.max(val_col)
    if lo is None:
        import ray.data as rd

        return (
            rd.from_arrow(
                pa.table({id_col: pa.array([], pa.int64()),
                          val_col: pa.array([], pa.int64()),
                          "rank": pa.array([], pa.int64())})
            ),
            0,
        )
    span = max(1, (int(hi) - int(lo) + n_buckets) // n_buckets)

    def add_bucket(t: pa.Table) -> pa.Table:
        v = t.column(val_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return t.append_column(
            "__bucket", pa.array((v - int(lo)) // span, pa.int64())
        )

    bucketed = data.map_batches(add_bucket, batch_format="pyarrow")

    from ray.data.aggregate import Count

    counts = (
        bucketed.groupby("__bucket")
        .aggregate(Count(alias_name="n"))
        .to_pandas()  # ONE row per range bucket
        .sort_values("__bucket")
    )
    n_total = int(counts["n"].sum())
    offsets = dict(
        zip(
            counts["__bucket"].astype(np.int64),
            np.concatenate(
                [[0], counts["n"].to_numpy(np.int64).cumsum()[:-1]]
            ),
        )
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([val_col, id_col])
        base = int(offsets[int(g["__bucket"].iloc[0])])
        out = g.drop(columns="__bucket").copy()
        out["rank"] = np.arange(base + 1, base + len(g) + 1, dtype=np.int64)
        return out

    ranked = bucketed.groupby("__bucket").map_groups(
        finish, batch_format="pandas"
    )
    return ranked, n_total


def ntile_global(ds, val_col: str, id_col: str, tiles: int,
                 n_buckets: int | None = None):
    """Exact global NTILE: Dataset(id, val) -> Dataset(id, tile) where
    ``tile`` is the row's SQL ``NTILE(tiles) OVER (ORDER BY val, id)``
    assignment — the first ``N mod tiles`` tiles hold ``ceil(N/tiles)``
    rows, the rest ``floor(N/tiles)`` (exactly DuckDB's rule).  Built
    on ``global_order_rank`` (the module's two-level scan, third use)."""
    ranked, n_total = global_order_rank(ds, val_col, id_col, n_buckets)
    q, rem = divmod(n_total, tiles)
    boundary = rem * (q + 1)  # ranks <= boundary live in the big tiles
    q_safe = max(q, 1)  # q == 0 only when every rank <= boundary

    def to_tile(t: pa.Table) -> pa.Table:
        rank = t.column("rank").to_numpy(zero_copy_only=False)
        tile = np.where(
            rank <= boundary,
            (rank - 1) // (q + 1),
            rem + (rank - 1 - boundary) // q_safe,
        ) + 1
        return pa.table(
            {id_col: t.column(id_col), "tile": pa.array(tile.astype(np.int64))}
        )

    return ranked.map_batches(to_tile, batch_format="pyarrow")


def chunk_documents(batch: pa.Table, window: int = 64, stride: int = 48,
                    id_col: str = "doc_id",
                    text_col: str = "text") -> pa.Table:
    """Fixed-token chunking with overlap — the RAG / pretraining
    windowing step: split each document into whitespace tokens and emit
    one row per ``window``-token chunk, starting every ``stride``
    tokens (``stride < window`` ⇒ overlapping chunks).

    Chunk rule (deterministic, SQL-replicable): ``n_chunks = 1 +
    ceil(max(n_tokens - window, 0) / stride)`` for non-empty documents
    — full coverage, the last chunk may be short, no chunk starts past
    the tail.  Tokenization is the registry-wide whitespace definition
    (``token_counts``): RE2 trim then split on ``\\s+``.

    Pure per-batch map — no shuffle, embarrassingly parallel at any
    corpus size.  Fully vectorized: ONE Arrow ``split_pattern_regex``
    per batch, numpy index arithmetic for chunk spans, one Arrow
    ``take`` + ``binary_join`` to materialize chunk text (never a
    Python loop over rows or chunks).  Output rows ≈ input tokens /
    stride — emit is O(output bytes), the lower bound.
    """
    import pyarrow.compute as pc

    from gliner_cpp_ray.stages.text_analysis import _re2_trim

    if not 0 < stride <= window:
        raise ValueError("need 0 < stride <= window")
    trimmed = _re2_trim(batch.column(text_col)).combine_chunks()
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    doc_off = np.asarray(toks.offsets)  # int32 list offsets
    values = toks.values
    nt = np.diff(doc_off).astype(np.int64)
    nt[np.asarray(pc.equal(trimmed, "")) == True] = 0  # noqa: E712 ('' splits to [''])

    n_chunks = np.where(
        nt == 0, 0, 1 + (np.maximum(nt - window, 0) + stride - 1) // stride
    )
    total = int(n_chunks.sum())
    ids = batch.column(id_col)
    if total == 0:
        return pa.table(
            {id_col: ids.slice(0, 0),
             "chunk_idx": pa.array([], pa.int64()),
             "start_tok": pa.array([], pa.int64()),
             "n_tok": pa.array([], pa.int64()),
             "chunk_text": pa.array([], pa.string())}
        )
    doc_idx = np.repeat(np.arange(len(nt)), n_chunks)
    cum = np.cumsum(n_chunks)
    chunk_idx = np.arange(total, dtype=np.int64) - np.repeat(
        cum - n_chunks, n_chunks
    )
    start = chunk_idx * stride
    n_tok = np.minimum(start + window, nt[doc_idx]) - start

    # flat token indices of every chunk: base offset + local range
    tok_cum = np.cumsum(n_tok)
    base = doc_off[doc_idx].astype(np.int64) + start
    tok_idx = (
        np.arange(int(tok_cum[-1]), dtype=np.int64)
        - np.repeat(tok_cum - n_tok, n_tok)
        + np.repeat(base, n_tok)
    )
    chunks = pa.ListArray.from_arrays(
        pa.array(np.concatenate([[0], tok_cum]), pa.int32()),
        values.take(pa.array(tok_idx)),
    )
    return pa.table(
        {id_col: ids.take(pa.array(doc_idx)),
         "chunk_idx": pa.array(chunk_idx),
         "start_tok": pa.array(start.astype(np.int64)),
         "n_tok": pa.array(n_tok.astype(np.int64)),
         "chunk_text": pc.binary_join(chunks, " ")}
    )


def assemble_key_histories(ds, key_cols: list[str], ts_col: str,
                           id_col: str, val_col: str, head_k: int = 8,
                           sep: str = ",", out_col: str = "history"):
    """Per-key ordered head-k sequence assembly: each key's first
    ``head_k`` ``val_col`` values under ORDER BY (ts, id), joined into
    one delimited string — the example-construction primitive that
    turns an event log into per-entity training sequences
    (user behavioral histories, session transcripts, click trails).

    -> Dataset(*key_cols, n_events_used, out_col).

    Scale shape: ONE composite-key-hash bucket shuffle co-locates each
    key (the same plan as ``seq_numbers_per_key``); the per-bucket
    reduce sorts once, computes within-key ordinals with a vectorized
    run-relative cumcount, drops rows past ``head_k``, and joins the
    survivors per key.  The join output is bounded by head_k short
    values per key, so the per-key work (unlike the corpus) is O(1).
    """
    from gliner_cpp_ray.stages.joins import keyed_runs, run_starts

    if head_k < 1:
        raise ValueError("head_k must be >= 1")

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        seq = np.arange(len(g), dtype=np.int64) - run_starts(first)
        kept = g.iloc[seq < head_k]
        out = (
            kept.groupby(key_cols, sort=False)[val_col]
            .agg(n_events_used="size", **{out_col: sep.join})
            .reset_index()
        )
        out["n_events_used"] = out["n_events_used"].astype(np.int64)
        return out

    return keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket)


def grouped_order_rank(ds, group_col: str, val_col: str, id_col: str,
                       n_buckets: int | None = None):
    """PER-GROUP exact 1-based rank under ``row_number() OVER
    (PARTITION BY group ORDER BY (val, id))`` — the grouped
    generalization of ``global_order_rank`` for BOUNDED group sets
    (event types, languages, statuses), where a hot group holds a
    corpus-scale share of rows and a per-group sort inside one reducer
    would concentrate the whole group on one task.

    Returns (Dataset(group, id, val, rank), {group: n_total}).

    Same two-level value-range scan, run for all groups in one pass:
    per-group min/max (one tiny grouped aggregate) size per-group
    order-preserving value buckets; ONE (group, vbucket) count row per
    combination reaches the driver (groups x n_buckets, never rows);
    per-(group, vbucket) finish = local sort + the bucket's exclusive
    offset.  A hot group's rank work spreads over its n_buckets range
    buckets instead of one task."""
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import bucketed_group_agg

    if n_buckets is None:
        n_buckets = max(8, 10 * cluster_cpus())

    data = ds.materialize()  # consumed twice: bounds + counts/finish
    bounds = bucketed_group_agg(
        data, group_col,
        specs=[("min", val_col, "lo"), ("max", val_col, "hi")],
        n_buckets=8,
    ).to_pandas()  # group-set-bounded
    if not len(bounds):
        return (
            rd.from_arrow(
                pa.table(
                    {
                        group_col: pa.array([], pa.string()),
                        id_col: pa.array([], pa.int64()),
                        val_col: pa.array([], pa.int64()),
                        "rank": pa.array([], pa.int64()),
                    }
                )
            ),
            {},
        )
    lo = dict(zip(bounds[group_col], bounds["lo"].astype(np.int64)))
    span = {
        g: max(1, (int(h) - int(l) + n_buckets) // n_buckets)
        for g, l, h in zip(
            bounds[group_col], bounds["lo"].astype(np.int64),
            bounds["hi"].astype(np.int64),
        )
    }

    def add_vb(t: pa.Table) -> pa.Table:
        # factorize -> dict lookups happen once per DISTINCT group in
        # the batch (bounded), then broadcast by codes — no per-row loop
        codes, uniq = pd.factorize(
            pd.Series(t.column(group_col).to_pylist()), sort=False
        )
        v = t.column(val_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        los = np.array([lo[g] for g in uniq], np.int64)[codes]
        spans = np.array([span[g] for g in uniq], np.int64)[codes]
        return t.append_column(
            "__vb", pa.array((v - los) // spans, pa.int64())
        )

    bucketed = data.map_batches(add_vb, batch_format="pyarrow")
    counts = bucketed_group_agg(
        bucketed, [group_col, "__vb"], agg="count", out_col="n", n_buckets=8
    ).to_pandas().sort_values([group_col, "__vb"])  # groups x n_buckets rows
    n_tot = counts.groupby(group_col)["n"].sum().astype(int).to_dict()
    offsets = {}
    for g, sub in counts.groupby(group_col, sort=False):
        cums = np.concatenate([[0], sub["n"].to_numpy(np.int64).cumsum()[:-1]])
        for vb, off in zip(sub["__vb"].astype(np.int64), cums):
            offsets[(g, int(vb))] = int(off)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([val_col, id_col], kind="stable")
        base = offsets[(g[group_col].iloc[0], int(g["__vb"].iloc[0]))]
        out = g.drop(columns="__vb").copy()
        out["rank"] = np.arange(base + 1, base + len(g) + 1, dtype=np.int64)
        return out

    ranked = bucketed.groupby([group_col, "__vb"]).map_groups(
        finish, batch_format="pandas"
    )
    return ranked, n_tot


def ntile_per_group(ds, group_col: str, val_col: str, id_col: str,
                    tiles: int, n_buckets: int | None = None):
    """Exact per-group NTILE: Dataset(group, id, val) -> Dataset(group,
    id, tile) where ``tile`` = ``NTILE(tiles) OVER (PARTITION BY group
    ORDER BY (val, id))`` under SQL's rule (the first ``N mod tiles``
    tiles of each group hold the extra row).  Built on
    ``grouped_order_rank`` — no per-group sort task, no global sort."""
    ranked, n_tot = grouped_order_rank(
        ds, group_col, val_col, id_col, n_buckets
    )
    qr = {g: divmod(n, tiles) for g, n in n_tot.items()}

    def to_tile(t: pa.Table) -> pa.Table:
        codes, uniq = pd.factorize(
            pd.Series(t.column(group_col).to_pylist()), sort=False
        )
        rank = t.column("rank").to_numpy(zero_copy_only=False)
        q = np.array([qr[g][0] for g in uniq], np.int64)[codes]
        rem = np.array([qr[g][1] for g in uniq], np.int64)[codes]
        boundary = rem * (q + 1)
        q_safe = np.maximum(q, 1)
        tile = np.where(
            rank <= boundary,
            (rank - 1) // (q + 1),
            rem + (rank - 1 - boundary) // q_safe,
        ) + 1
        return pa.table(
            {
                group_col: t.column(group_col),
                id_col: t.column(id_col).cast(pa.int64()),
                "tile": pa.array(tile.astype(np.int64)),
            }
        )

    return ranked.map_batches(to_tile, batch_format="pyarrow")


def subsequence_triple_support(ds, key_cols: list[str], ts_col: str,
                               id_col: str, code_col: str,
                               alphabet_size: int):
    """Support counts for ALL length-3 subsequence patterns (order-
    preserving, gaps allowed, repeated symbols allowed) over per-key
    event-code sequences — sequential-pattern mining at the L=3 tier.

    Exactness without per-key pattern enumeration: for a key's code
    sequence s, pattern (x, b, z) is supported iff z occurs after
    j*(x, b), the FIRST occurrence of b strictly after the first
    occurrence of x.  (Suffix alphabets only shrink as j grows, so the
    earliest valid middle position dominates every later one — checking
    j* alone is exact, not a heuristic.)  Per-key work is
    O(L·A + A²·A) with A = ``alphabet_size``; each bucket emits one
    dense A³ support partial, so the final exchange carries
    buckets × A³ tiny rows regardless of corpus size.

    -> Dataset(c1, c2, c3, n_keys) with int codes in [0, A).
    """
    from ray.data.aggregate import Sum

    from gliner_cpp_ray.stages.joins import keyed_runs

    if alphabet_size < 1 or alphabet_size > 62:
        raise ValueError("alphabet_size must be in [1, 62]")
    A = alphabet_size

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pa.Table:
        supp = np.zeros((A, A, A), np.int64)
        s_all = g[code_col].to_numpy(np.int64)
        starts = np.flatnonzero(first)
        bounds = np.append(starts, len(g))
        bits_all = (np.int64(1) << s_all)
        for i in range(len(starts)):
            s = s_all[bounds[i]:bounds[i + 1]]
            if len(s) < 3:
                continue
            bits = bits_all[bounds[i]:bounds[i + 1]]
            # exclusive suffix OR-mask of codes after each position
            suf = np.zeros(len(s), np.int64)
            suf[:-1] = np.bitwise_or.accumulate(bits[::-1])[::-1][1:]
            pos = [np.flatnonzero(s == b) for b in range(A)]
            for x in range(A):
                if not len(pos[x]):
                    continue
                fx = pos[x][0]
                for b in range(A):
                    idx = np.searchsorted(pos[b], fx + 1)
                    if idx >= len(pos[b]):
                        continue
                    mask = int(suf[pos[b][idx]])
                    z = 0
                    while mask:
                        if mask & 1:
                            supp[x, b, z] += 1
                        mask >>= 1
                        z += 1
        nz = np.flatnonzero(supp.ravel())
        c1, rem = np.divmod(nz, A * A)
        c2, c3 = np.divmod(rem, A)
        return pa.table(
            {
                "c1": pa.array(c1.astype(np.int64)),
                "c2": pa.array(c2.astype(np.int64)),
                "c3": pa.array(c3.astype(np.int64)),
                "n_keys": pa.array(supp.ravel()[nz]),
            }
        )

    return (
        keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket)
        .groupby(["c1", "c2", "c3"])
        .aggregate(Sum("n_keys", alias_name="n_keys"))
    )
