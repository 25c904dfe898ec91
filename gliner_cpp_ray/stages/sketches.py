"""Mergeable sketches for distributed approximate analytics.

KMV (k-minimum-values) distinct-count sketch: hash every value, keep
the k smallest distinct hashes; the k-th smallest, seen as a fraction
``t`` of the hash space, estimates distinct count as ``(k-1)/t``
(Bar-Yossef et al., RANDOM'02 — the classic bottom-k estimator).

Why this sketch here: it is **mergeable** (union of partials = take the
k smallest over their union), which is the property that makes a
sketch a Ray Data operator — per-batch partials in ``map_batches``,
one tiny driver merge, no shuffle of the raw column.  And because the
hash is md5 (SQL-expressible), the DuckDB oracle replicates the
ESTIMATE bit-exactly — the integer estimator below uses pure int64
arithmetic so Ray and SQL agree to the last digit, making this the
rare approximate operator with a full hash-checked oracle.

At 10^12 rows: each task ships k hashes (k·16 bytes) to the driver —
movement is O(tasks·k), independent of cardinality or corpus size.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa


_K_DEFAULT = 64
_HASH_BITS = 32  # estimator works on the first 32 hash bits


def _safe_bins(v: np.ndarray, lo: int, w: int) -> np.ndarray:
    """Bin indices ``(v - lo) // w`` computed in uint64 so a column
    whose SPAN exceeds int64 (e.g. min near -2^62 and max near +2^62)
    cannot wrap and misbin: two's-complement uint64 subtraction is
    exact mod 2^64 and the true non-negative difference always fits.
    ``v`` must already be range-filtered to ``v >= lo``."""
    lo_u = np.int64(lo).astype(np.uint64)
    return ((v.astype(np.uint64) - lo_u) // np.uint64(w)).astype(np.int64)


def _kmv_hashes(values, k: int) -> list[str]:
    """k smallest distinct md5 hex digests of the stringified values."""
    hs = {hashlib.md5(str(v).encode("utf-8")).hexdigest() for v in values}
    return sorted(hs)[:k]


class KmvPartial:
    """Per-batch partial: the k smallest distinct value-hashes."""

    def __init__(self, col: str, k: int = _K_DEFAULT):
        self.col = col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = _kmv_hashes(batch.column(self.col).to_pylist(), self.k)
        return pa.table({"h": pa.array(hs, pa.string())})


def kmv_estimate_from_hashes(hashes: list[str], k: int = _K_DEFAULT) -> int:
    """Bottom-k estimate in pure int64 arithmetic (bit-exact vs SQL).

    With fewer than k distinct hashes the count is EXACT (we saw every
    distinct value).  Otherwise ``(k-1) * 2^32 // kth_hash_as_uint32``
    using the first 8 hex chars — both sides integer, no float drift.
    """
    hs = sorted(set(hashes))[:k]
    if len(hs) < k:
        return len(hs)
    kth = int(hs[k - 1][:8], 16)
    if kth == 0:  # pragma: no cover - 2^-32 corner
        return len(hs)
    return (k - 1) * (1 << _HASH_BITS) // kth


def kmv_distinct_count(ds, col: str, k: int = _K_DEFAULT) -> int:
    """Distributed distinct-count estimate of ``ds[col]``.

    Per-batch ``KmvPartial`` → driver merge of ≤ k hashes per block
    (the ONLY data that leaves the workers) → integer estimator."""
    # instance -> plain tasks on the warm worker pool (setup is two
    # scalars; actor-pool spin-up dominated the query at bench scale)
    partial = ds.map_batches(
        KmvPartial(col=col, k=k), batch_format="pyarrow"
    )
    merged = partial.to_pandas()["h"].tolist()
    return kmv_estimate_from_hashes(merged, k)


class HistogramPartial:
    """Per-batch fixed-bin histogram partial: one (bin, n) row per
    non-empty bin.  Fixed edges (``lo + i·w``) make partials combinable
    with a plain Sum — and make the binning an exact SQL expression, so
    the quantile ESTIMATE is oracle-checkable despite being approximate.
    """

    def __init__(self, col: str, lo: float, hi: float, n_bins: int):
        self.col = col
        self.lo = float(lo)
        self.w = (float(hi) - float(lo)) / n_bins
        self.n_bins = n_bins

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        v = batch.column(self.col).to_numpy(zero_copy_only=False).astype(
            "float64"
        )
        bins = np.clip(
            np.floor((v - self.lo) / self.w), 0, self.n_bins - 1
        ).astype("int64")
        counts = np.bincount(bins, minlength=self.n_bins)
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                "bin": pa.array(nz, pa.int64()),
                "n": pa.array(counts[nz], pa.int64()),
            }
        )


def histogram_quantile_bins(ds, col: str, lo: float, hi: float,
                            n_bins: int = 64, q_pcts=(50, 90, 99)):
    """Approximate quantiles as BIN INDICES: for each q, the smallest
    bin whose cumulative count reaches ``ceil(q% · total)``.

    Distributed shape: per-batch histogram partials (≤ n_bins rows per
    task — combinable), one small groupby-sum, and only n_bins rows
    reach the driver; nothing scales with the corpus.  Reporting the
    integer bin index (resolution (hi-lo)/n_bins) rather than an
    interpolated float keeps the Ray/SQL comparison exact.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    partial = ds.map_batches(
        HistogramPartial(col=col, lo=lo, hi=hi, n_bins=n_bins),
        batch_format="pyarrow",
    )
    bins = (
        partial.groupby("bin").aggregate(Sum("n", alias_name="n")).to_pandas()
    )
    if "bin" not in bins.columns:  # empty input drops the aggregate schema
        bins = pd.DataFrame({"bin": pd.Series(dtype="int64"),
                             "n": pd.Series(dtype="int64")})
    bins = bins.sort_values("bin")
    total = int(bins["n"].sum()) if len(bins) else 0
    cum = bins["n"].cumsum()
    out_q, out_bin = [], []
    for q in q_pcts:
        # integer ceil(q% of total) — bit-exact vs the SQL oracle;
        # an empty input has no bin to report: emit -1 (stable schema)
        need = (q * total + 99) // 100
        idx = int(bins.loc[cum >= need, "bin"].iloc[0]) if total else -1
        out_q.append(int(q))
        out_bin.append(idx)
    return pd.DataFrame(
        {"q_pct": out_q, "bin": out_bin, "total": [total] * len(out_q)}
    ).astype("int64")


class GroupedHistogramPartial:
    """Per-batch (group, bin, count) histogram partial — the combinable
    first phase of grouped quantiles.  ≤ groups_in_batch × n_bins rows
    per task, never row-proportional."""

    def __init__(self, group_col: str, col: str, lo: float, hi: float,
                 n_bins: int):
        self.group_col, self.col = group_col, col
        self.lo, self.n_bins = lo, n_bins
        self.w = (hi - lo) / n_bins

    def __call__(self, t: pa.Table) -> pa.Table:
        v = t.column(self.col).to_numpy(zero_copy_only=False).astype(float)
        bins = np.clip(
            np.floor((v - self.lo) / self.w), 0, self.n_bins - 1
        ).astype("int64")
        df = pd.DataFrame(
            {self.group_col: t.column(self.group_col).to_pandas(), "bin": bins}
        )
        c = (
            df.groupby([self.group_col, "bin"], sort=False)
            .size()
            .reset_index(name="n")
        )
        c["n"] = c["n"].astype("int64")
        return pa.Table.from_pandas(c, preserve_index=False)


def grouped_histogram_quantile_bins(ds, group_col: str, col: str, lo: float,
                                    hi: float, n_bins: int = 64,
                                    q_pcts=(50, 90, 99),
                                    n_buckets: int | None = None):
    """Per-GROUP approximate quantiles as bin indices: for each group
    and each q, the smallest bin whose within-group cumulative count
    reaches ``ceil(q% · group_total)``.

    Distributed shape: combinable per-batch (group, bin, n) partials,
    ONE shuffle on a hash bucket of the group key (whole groups
    co-locate; partial volume is tasks × groups × n_bins, never rows),
    then one vectorized pandas reduce per bucket — cumsum + threshold
    scan across all of the bucket's groups at once, no per-group Python.
    Nothing reaches the driver; output is groups × |q_pcts| rows."""
    from gliner_cpp_ray.stages.joins import keyed_exchange

    qs = sorted(int(q) for q in q_pcts)

    partial = ds.map_batches(
        GroupedHistogramPartial(group_col, col, lo, hi, n_bins),
        batch_format="pyarrow",
    )

    def reduce(bdf: pd.DataFrame) -> pd.DataFrame:
        c = (
            bdf.groupby([group_col, "bin"], sort=True)["n"]
            .sum()
            .reset_index()
        )
        c["cum"] = c.groupby(group_col, sort=False)["n"].cumsum()
        totals = c.groupby(group_col, sort=False)["n"].sum()
        frames = []
        for q in qs:  # |q_pcts| iterations, each vectorized over groups
            need = ((q * totals + 99) // 100).rename("need")
            m = c.merge(need, left_on=group_col, right_index=True)
            sel = (
                m[m["cum"] >= m["need"]]
                .groupby(group_col, sort=False)
                .first()  # rows are bin-sorted: first == smallest bin
            )
            frames.append(
                pd.DataFrame(
                    {
                        group_col: sel.index,
                        "q_pct": np.int64(q),
                        "bin": sel["bin"].astype("int64").to_numpy(),
                        "total": totals.loc[sel.index]
                        .astype("int64")
                        .to_numpy(),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    return keyed_exchange(partial, [group_col], reduce, n_buckets)


class _AboveBinFilter:
    """Keep rows whose histogram bin EXCEEDS their group's threshold
    bin.  A callable instance (plain tasks, not an actor pool — state
    is a group-cardinality-bounded dict that builds in microseconds and
    ships once per worker via the object store)."""

    def __init__(self, thresholds: dict, group_col: str, col: str,
                 lo: float, hi: float, n_bins: int):
        self.thresholds = thresholds
        self.group_col, self.col = group_col, col
        self.lo, self.n_bins = lo, n_bins
        self.w = (hi - lo) / n_bins

    def __call__(self, t: pa.Table) -> pa.Table:
        v = t.column(self.col).to_numpy(zero_copy_only=False).astype(float)
        bins = np.clip(
            np.floor((v - self.lo) / self.w), 0, self.n_bins - 1
        ).astype("int64")
        g = t.column(self.group_col).to_pandas()
        thr = g.map(self.thresholds).to_numpy(na_value=np.iinfo(np.int64).max)
        return t.filter(pa.array(bins > thr.astype(np.int64)))


def count_above_group_quantile(ds, group_col: str, col: str, lo: float,
                               hi: float, n_bins: int = 64, q_pct: int = 50):
    """Per-group count of rows whose ``col`` lands in a histogram bin
    STRICTLY ABOVE the group's q-quantile bin — the
    sketch → broadcast → filter composition behind "keep documents
    above the per-language median quality" style selection.

    Movement: the quantile pass is ``grouped_histogram_quantile_bins``
    (combinable partials, one group-bucket shuffle); only the
    groups × 1 threshold table reaches the driver (bounded by group
    cardinality, never rows), ships back broadcast inside a filter
    instance, and the counting pass is a pure streaming map + one
    combinable groupby.  Bin arithmetic is integer-exact on both sides,
    so the DuckDB oracle replicates the threshold AND the filter."""
    from ray.data.aggregate import Count

    qb = grouped_histogram_quantile_bins(
        ds, group_col, col, lo, hi, n_bins, q_pcts=(q_pct,)
    ).to_pandas()
    thresholds = dict(zip(qb[group_col], qb["bin"].astype("int64")))
    flt = _AboveBinFilter(thresholds, group_col, col, lo, hi, n_bins)
    counts = (
        ds.map_batches(flt, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Count(alias_name="n_above"))
    )

    def attach(t: pa.Table) -> pa.Table:
        thr = [thresholds[g] for g in t.column(group_col).to_pylist()]
        return t.append_column("q_bin", pa.array(thr, pa.int64()))

    return counts.map_batches(attach, batch_format="pyarrow")


# --------------------------------------------------------------- Count-Min

_CMS_P = 2_147_483_647  # Mersenne prime 2^31-1 (same family as MinHash)
_CMS_SEED = 11


def cms_params(d: int, seed: int = _CMS_SEED):
    """Seeded universal-hash family ((a*x + b) mod p) mod w — constants
    are reproducible on both sides, so the oracle can inline them."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _CMS_P, size=d).astype(np.int64)
    b = rng.integers(0, _CMS_P, size=d).astype(np.int64)
    return a, b


def _md5_u60(s: str) -> int:
    """First 15 hex digits of md5 — int64-safe and SQL-expressible
    (``CAST(concat('0x', substr(md5(s),1,15)) AS BIGINT)``)."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:15], 16)


def _cms_cells(x: np.ndarray, a: np.ndarray, b: np.ndarray, w: int) -> np.ndarray:
    """(d, len(x)) cell indices; every intermediate fits int64:
    a < 2^31, (x mod p) < 2^31 → a*(x%p) < 2^62."""
    xm = x % _CMS_P
    return ((a[:, None] * xm[None, :] + b[:, None]) % _CMS_P) % w


def cms_build(ds, text_col: str = "text", d: int = 4, w: int = 1024,
              seed: int = _CMS_SEED) -> np.ndarray:
    """Distributed Count-Min sketch over the token stream.

    Mergeable like KMV: the accumulator is the fixed-size (d, w) int64
    count matrix — per-block vectorized accumulation (tokens → per-batch
    DISTINCT term counts via ``np.unique``; md5 hashed once per distinct
    term, never per occurrence), tree ``+`` merge.  Data movement is
    O(tasks · d·w · 8 B), independent of corpus size — the property that
    makes heavy-hitter estimation a single aggregate at 100 TB.
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import AggregateFn

    from gliner_cpp_ray.stages.text_analysis import _re2_trim

    a, b = cms_params(d, seed)

    def acc_block(mat: np.ndarray, block) -> np.ndarray:
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        trimmed = _re2_trim(t.column(text_col))
        toks = pc.split_pattern_regex(trimmed, r"\s+")
        flat = pc.utf8_lower(pc.list_flatten(toks))
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        nonempty = pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
        words = flat.filter(pa.array(nonempty[parents])).to_pandas().to_numpy()
        if not len(words):
            return mat
        uniq, counts = np.unique(words, return_counts=True)
        x = np.fromiter((_md5_u60(s) for s in uniq), np.int64, len(uniq))
        cells = _cms_cells(x, a, b, w)
        mat = mat.copy()
        for i in range(d):
            np.add.at(mat[i], cells[i], counts)
        return mat

    agg = AggregateFn(
        init=lambda k: np.zeros((d, w), np.int64),
        merge=lambda m1, m2: m1 + m2,
        accumulate_block=acc_block,
        name="cms",
    )
    return ds.aggregate(agg)["cms"]


def cms_term_estimates(ds, terms: list[str], text_col: str = "text",
                       d: int = 4, w: int = 1024,
                       seed: int = _CMS_SEED) -> pa.Table:
    """(term, est_n): Count-Min occurrence estimates for query terms —
    ``min_i sketch[i, h_i(term)]`` (classic CM upper-bound estimator).
    Pure int64 arithmetic end to end, so the DuckDB transcription of
    the sketch reproduces the estimates bit-exactly."""
    a, b = cms_params(d, seed)
    mat = cms_build(ds, text_col=text_col, d=d, w=w, seed=seed)
    terms = sorted(set(t.lower() for t in terms))
    x = np.fromiter((_md5_u60(t) for t in terms), np.int64, len(terms))
    cells = _cms_cells(x, a, b, w)
    est = np.min(
        np.stack([mat[i, cells[i]] for i in range(d)], axis=0), axis=0
    )
    return pa.table(
        {
            "term": pa.array(terms, pa.string()),
            "est_n": pa.array(est.astype(np.int64)),
        }
    )


class GroupedKmvPartial:
    """Per-batch grouped KMV partial: the k smallest distinct
    value-hashes PER group present in the batch.  Shuffle volume is
    tasks × groups-per-task × k rows — corpus-size independent."""

    def __init__(self, group_col: str, col: str, k: int = _K_DEFAULT):
        self.group_col = group_col
        self.col = col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(self.group_col).to_pandas(),
                "v": batch.column(self.col).to_pandas(),
            }
        ).drop_duplicates()
        df["h"] = [
            hashlib.md5(str(v).encode("utf-8")).hexdigest() for v in df["v"]
        ]
        df = df.drop(columns="v").drop_duplicates()
        kept = (
            df.sort_values(["g", "h"])
            .groupby("g", sort=False)
            .head(self.k)
        )
        return pa.table(
            {
                "g": pa.array(kept["g"], batch.schema.field(self.group_col).type),
                "h": pa.array(kept["h"], pa.string()),
            }
        )


def grouped_kmv_distinct(ds, group_col: str, col: str,
                         k: int = _K_DEFAULT, n_buckets: int | None = None):
    """Distinct-count estimate of ``col`` PER ``group_col`` value.

    Fully distributed: per-batch grouped partials → one bucket-hash
    shuffle of the (group, hash) rows (≤ tasks × groups × k) → per-group
    bottom-k estimator inside whole-bucket vectorized reduces.  Unlike
    the global ``kmv_distinct_count``, the driver never sees a hash.
    Returns a Dataset of (group_col, k, estimate), both int64."""
    from gliner_cpp_ray.stages.joins import keyed_exchange
    from gliner_cpp_ray.stages.sizing import default_buckets

    if n_buckets is None:
        n_buckets = max(4, default_buckets(None) // 4)
    partial = ds.map_batches(
        GroupedKmvPartial(group_col, col, k), batch_format="pyarrow"
    )

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for grp, sub in g.groupby("g", sort=False):
            rows.append((grp, kmv_estimate_from_hashes(sub["h"].tolist(), k)))
        out = pd.DataFrame(rows, columns=[group_col, "estimate"])
        out["k"] = np.int64(k)
        out["estimate"] = out["estimate"].astype("int64")
        return out[[group_col, "k", "estimate"]]

    return keyed_exchange(partial, ["g"], reduce, n_buckets)


def kmv_overlap(ds_a, ds_b, col_a: str, col_b: str,
                k: int = _K_DEFAULT) -> dict[str, int]:
    """Set-overlap estimation between two key columns from their KMV
    sketches — the cross-corpus dedup-sizing / join-cardinality
    primitive: how many distinct keys do A and B share, without ever
    shuffling either key set.

    Method (Beyer et al., SIGMOD'07 bottom-k set operations): build the
    bottom-k sketch of each side, take the k smallest of their union U;
    ``n_both = |{h in U : h in A_k and h in B_k}|`` estimates the
    Jaccard numerator, and ``est_intersection = n_both * est_union // k``
    (pure int64, same estimator arithmetic as ``kmv_estimate_from_hashes``).
    If the union sketch is unsaturated (< k distinct hashes), every
    distinct value of both sides was seen, so all four outputs are
    EXACT.

    Movement: O(tasks * k) hashes per side to the driver — independent
    of either corpus's size, like ``kmv_distinct_count``.

    Returns ``{"k", "est_a", "est_b", "est_union", "est_intersection"}``
    (all int).
    """
    def sketch(ds, col):
        merged = (
            ds.map_batches(KmvPartial(col=col, k=k), batch_format="pyarrow")
            .to_pandas()["h"]
            .tolist()
        )
        return sorted(set(merged))[:k]

    a_k, b_k = sketch(ds_a, col_a), sketch(ds_b, col_b)
    sa, sb = set(a_k), set(b_k)
    u = sorted(sa | sb)[:k]
    est_union = kmv_estimate_from_hashes(u, k)
    n_both = sum(1 for h in u if h in sa and h in sb)
    if len(u) < k:  # unsaturated: sketches ARE the full hash sets
        est_int = n_both
    else:
        est_int = n_both * est_union // k
    return {
        "k": k,
        "est_a": kmv_estimate_from_hashes(a_k, k),
        "est_b": kmv_estimate_from_hashes(b_k, k),
        "est_union": est_union,
        "est_intersection": est_int,
    }


def equiwidth_histogram(ds, col: str, n_bins: int = 16):
    """EXACT equi-width histogram with data-derived integer bounds —
    the distribution-profile companion to the fixed-edge quantile
    sketch (and the zone-map/table-profile stats): bin counts of an
    int64 column between its own min and max.

    Pure-integer edges: ``w = (max - min) // n_bins + 1`` guarantees
    ``(v - min) // w`` lands in ``[0, n_bins)`` with no float edge in
    sight, so any SQL engine reproduces every bin bit-for-bit.

    Two passes over one pruned column: a min/max scalar aggregate, then
    per-batch ``np.bincount`` partials folded by a tiny grouped sum
    (movement: tasks x n_bins rows).  -> Dataset(bin, bin_lo, n).
    """
    from ray.data.aggregate import Max, Min

    from gliner_cpp_ray.stages.joins import bucketed_group_agg

    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    mm = ds.aggregate(Min(col), Max(col))
    lo, hi = int(mm[f"min({col})"]), int(mm[f"max({col})"])
    w = (hi - lo) // n_bins + 1

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        bins = _safe_bins(v, lo, w)
        counts = np.bincount(bins, minlength=n_bins)
        nz = np.nonzero(counts)[0]
        lo_u = np.int64(lo).astype(np.uint64)
        bin_lo = (lo_u + nz.astype(np.uint64) * np.uint64(w)).astype(
            np.int64
        )  # exact: lo + nz*w <= hi, so the uint64 round-trip is lossless
        return pa.table(
            {
                "bin": pa.array(nz.astype(np.int64)),
                "bin_lo": pa.array(bin_lo),
                "n": pa.array(counts[nz].astype(np.int64)),
            }
        )

    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["bin", "bin_lo"], "sum", val_col="n", out_col="n", n_buckets=8,
    )


def exact_order_statistic(ds, col: str, rank: int | None = None,
                          n_bins: int = 4096) -> dict[str, int]:
    """EXACT k-th smallest of an int64 column at any scale — the exact
    counterpart of the histogram quantile sketch, for when "p50 ± a
    bin" isn't good enough (SLA cutoffs, exact medians for splits).

    Classic iterative histogram refinement (distributed selection):
    each round bins the candidate range ``[lo, hi]`` into ``n_bins``
    integer-width cells, folds per-batch bincount partials (movement:
    tasks x n_bins rows, data never moves), locates the cell containing
    the target rank on the driver (n_bins ints of state), and recurses
    into it.  The range shrinks ~n_bins x per round, so an int64-wide
    domain resolves in <= ceil(64 / log2(n_bins)) = 6 scans of one
    pruned column; a micro-quantized price column resolves in 3-4.
    Every step is integer arithmetic — bit-reproducible anywhere.

    ``rank``: 0-based target (default: the lower median ``(n-1) // 2``).

    Returns ``{"n", "rank", "value"}`` (ints).
    """
    from ray.data.aggregate import Count, Max, Min

    from gliner_cpp_ray.stages.joins import bucketed_group_agg

    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    agg = ds.aggregate(Min(col), Max(col), Count())
    n = int(agg["count()"])
    if n == 0:
        raise ValueError("column is empty")
    lo, hi = int(agg[f"min({col})"]), int(agg[f"max({col})"])
    if rank is None:
        rank = (n - 1) // 2
    if not 0 <= rank < n:
        raise ValueError(f"rank {rank} out of [0, {n})")
    out_rank, k = rank, rank

    while lo < hi:
        w = (hi - lo) // n_bins + 1

        def partial(t: pa.Table, lo=lo, hi=hi, w=w) -> pa.Table:
            v = t.column(col).to_numpy(zero_copy_only=False)
            v = v[(v >= lo) & (v <= hi)]
            counts = np.bincount(_safe_bins(v, lo, w), minlength=n_bins)
            nz = np.nonzero(counts)[0]
            return pa.table(
                {
                    "bin": pa.array(nz.astype(np.int64)),
                    "n": pa.array(counts[nz].astype(np.int64)),
                }
            )

        hist = (
            bucketed_group_agg(
                ds.map_batches(partial, batch_format="pyarrow"),
                "bin", "sum", val_col="n", out_col="n", n_buckets=8,
            )
            .to_pandas()  # <= n_bins rows — driver state is tiny
            .sort_values("bin")
        )
        cum = hist["n"].cumsum().to_numpy()
        idx = int(np.searchsorted(cum, k + 1))
        b = int(hist["bin"].iloc[idx])
        k -= int(cum[idx - 1]) if idx else 0
        lo, hi = lo + b * w, min(hi, lo + (b + 1) * w - 1)

    return {"n": n, "rank": out_rank, "value": lo}


def exact_weighted_order_statistic(ds, col: str, weight_col: str,
                                   target_w: int | None = None,
                                   n_bins: int = 4096) -> dict[str, int]:
    """EXACT weighted order statistic of an int64 column: the smallest
    value v whose cumulative weight (over rows with value <= v) reaches
    ``target_w`` — default the lower WEIGHTED median, target
    ceil(W/2) = (W+1)//2.  The quantity-weighted price median is the
    inventory-planning staple the unweighted selection can't answer.

    Same iterative histogram refinement as ``exact_order_statistic``
    (bin the candidate range, fold per-batch partials, descend into the
    bin containing the target), except each bin accumulates the SUM OF
    WEIGHTS instead of a row count (int64 ``np.add.at`` — bincount's
    float64 weights path would round past 2^53).  Rounds:
    <= ceil(64 / log2(n_bins)); movement per round: tasks × n_bins
    (bin, w) rows; driver state: one small histogram.

    Returns ``{"value", "target_w", "total_w"}`` (ints)."""
    from ray.data.aggregate import Max, Min, Sum

    from gliner_cpp_ray.stages.joins import bucketed_group_agg

    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    agg = ds.aggregate(Min(col), Max(col), Sum(weight_col))
    total_w = int(agg[f"sum({weight_col})"])
    if total_w <= 0:
        raise ValueError("total weight must be positive")
    lo, hi = int(agg[f"min({col})"]), int(agg[f"max({col})"])
    if target_w is None:
        target_w = (total_w + 1) // 2
    if not 1 <= target_w <= total_w:
        raise ValueError(f"target_w {target_w} out of [1, {total_w}]")
    k = target_w

    while lo < hi:
        w = (hi - lo) // n_bins + 1

        def partial(t: pa.Table, lo=lo, hi=hi, w=w) -> pa.Table:
            v = t.column(col).to_numpy(zero_copy_only=False)
            wt = t.column(weight_col).to_numpy(zero_copy_only=False)
            m = (v >= lo) & (v <= hi)
            v, wt = v[m], wt[m]
            sums = np.zeros(n_bins, np.int64)
            np.add.at(sums, _safe_bins(v, lo, w), wt)
            nz = np.nonzero(sums)[0]
            return pa.table(
                {
                    "bin": pa.array(nz.astype(np.int64)),
                    "w": pa.array(sums[nz]),
                }
            )

        hist = (
            bucketed_group_agg(
                ds.map_batches(partial, batch_format="pyarrow"),
                "bin", "sum", val_col="w", out_col="w", n_buckets=8,
            )
            .to_pandas()  # <= n_bins rows — driver state is tiny
            .sort_values("bin")
        )
        cum = hist["w"].cumsum().to_numpy()
        idx = int(np.searchsorted(cum, k))
        b = int(hist["bin"].iloc[idx])
        k -= int(cum[idx - 1]) if idx else 0
        lo, hi = lo + b * w, min(hi, lo + (b + 1) * w - 1)

    return {"value": lo, "target_w": target_w, "total_w": total_w}


def exact_multi_order_statistic(ds, col: str, ranks: list[int],
                                n_bins: int = 4096) -> list[int]:
    """EXACT values at SEVERAL 0-based ranks of an int64 column in one
    shared refinement — the equi-depth boundary / range-partitioner
    planning primitive (computing k split points must not cost k full
    selections).  Each round scans the dataset ONCE for the union of
    the surviving candidate ranges: ranks that landed in the same bin
    share a range, ranks in different bins own DISJOINT ranges (so a
    row feeds at most one range's histogram), and every range halves
    the same way the single-rank loop does.  Movement per round:
    tasks × |ranges| × n_bins partial rows; rounds <=
    ceil(64 / log2(n_bins)) regardless of how many ranks resolve.

    Returns the value at each requested rank, aligned with ``ranks``."""
    from ray.data.aggregate import Count, Max, Min

    from gliner_cpp_ray.stages.joins import bucketed_group_agg

    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    agg = ds.aggregate(Min(col), Max(col), Count())
    n = int(agg["count()"])
    if n == 0:
        raise ValueError("column is empty")
    lo0, hi0 = int(agg[f"min({col})"]), int(agg[f"max({col})"])
    for r in ranks:
        if not 0 <= r < n:
            raise ValueError(f"rank {r} out of [0, {n})")
    # per-rank state: (lo, hi, k) with k the 0-based rank INSIDE [lo,hi]
    state = {i: (lo0, hi0, r) for i, r in enumerate(ranks)}

    while True:
        ranges = sorted({(lo, hi) for lo, hi, _ in state.values() if lo < hi})
        if not ranges:
            break
        widths = [(hi - lo) // n_bins + 1 for lo, hi in ranges]

        def partial(t: pa.Table, ranges=ranges, widths=widths) -> pa.Table:
            v = t.column(col).to_numpy(zero_copy_only=False)
            rs, bs, ns = [], [], []
            for j, (lo, hi) in enumerate(ranges):
                vv = v[(v >= lo) & (v <= hi)]
                counts = np.bincount(
                    _safe_bins(vv, lo, widths[j]), minlength=n_bins
                )
                nz = np.nonzero(counts)[0]
                rs.append(np.full(len(nz), j, np.int64))
                bs.append(nz.astype(np.int64))
                ns.append(counts[nz].astype(np.int64))
            return pa.table(
                {
                    "r": pa.array(np.concatenate(rs) if rs else
                                  np.zeros(0, np.int64)),
                    "bin": pa.array(np.concatenate(bs) if bs else
                                    np.zeros(0, np.int64)),
                    "n": pa.array(np.concatenate(ns) if ns else
                                  np.zeros(0, np.int64)),
                }
            )

        hist = (
            bucketed_group_agg(
                ds.map_batches(partial, batch_format="pyarrow"),
                ["r", "bin"], "sum", val_col="n", out_col="n", n_buckets=8,
            )
            .to_pandas()  # <= |ranges| * n_bins rows — driver-tiny
        )
        for j, (lo, hi) in enumerate(ranges):
            sub = hist[hist["r"] == j].sort_values("bin")
            cum = sub["n"].cumsum().to_numpy()
            bins = sub["bin"].to_numpy()
            w = widths[j]
            for i, (slo, shi, k) in state.items():
                if (slo, shi) != (lo, hi):
                    continue
                idx = int(np.searchsorted(cum, k + 1))
                b = int(bins[idx])
                nk = k - (int(cum[idx - 1]) if idx else 0)
                state[i] = (
                    lo + b * w, min(hi, lo + (b + 1) * w - 1), nk
                )

    return [state[i][0] for i in range(len(ranks))]


def grouped_exact_median(ds, key_cols: list[str], val_col: str,
                         out_col: str = "median",
                         n_buckets: int | None = None):
    """EXACT lower-median per group (the element at 0-based rank
    ``(cnt-1)//2`` under ascending ``val_col``) — the exact companion
    to the approximate per-group histogram quantiles, for when every
    group's answer must be a real data value.

    Distributed shape: groups are co-located by ONE composite-key-hash
    shuffle (group count is unbounded, but each group's rows land in
    one bucket); the per-bucket reduce sorts once by (keys, val) and
    picks every run's median POSITION with run-length arithmetic — a
    diff/cumsum pass, never per-group frames.

    -> Dataset(*key_cols, out_col).  Caveat vs ``exact_order_statistic``:
    that one never moves the data but handles ONE global rank; this one
    shuffles the value column once and answers every group.
    """
    from gliner_cpp_ray.stages.joins import keyed_runs

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(g))
        med_pos = starts + (ends - starts - 1) // 2
        out = g.iloc[starts][key_cols].copy()
        out[out_col] = g[val_col].to_numpy()[med_pos]
        return out

    return keyed_runs(ds, key_cols, [val_col], reduce_bucket, n_buckets)


def grouped_mad(ds, key_cols: list[str], val_col: str,
                n_buckets: int | None = None):
    """EXACT per-group median absolute deviation (robust spread):
    ``mad = lower-median of |x - lower-median(x)|`` per key — the
    outlier-resistant dispersion statistic quality pipelines prefer to
    variance (one corrupt crawl page cannot move it).

    -> Dataset(*key_cols, median, mad).

    Shape: ``grouped_exact_median`` (one key-hash exchange) gives the
    per-key center; ONE bucketed join ships the key-bounded median
    table back onto the values; a second grouped median over the
    absolute deviations and a final key-bounded join of the two stat
    tables finish it.  All exchanges are value- or key-bounded; all
    arithmetic int64.
    """
    from gliner_cpp_ray.stages.joins import bucketed_hash_join

    if len(key_cols) != 1:
        raise NotImplementedError("grouped_mad: single key column only")
    key = key_cols[0]
    med = grouped_exact_median(ds, key_cols, val_col, out_col="median",
                               n_buckets=n_buckets)
    med_schema = pa.schema([(key, pa.int64()), ("median", pa.int64())])
    joined = bucketed_hash_join(
        ds, med, on=key, n_buckets=n_buckets,
        left_schema=pa.schema([(key, pa.int64()), (val_col, pa.int64())]),
        right_schema=med_schema,
    )

    def dev(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                key: t.column(key),
                "dev": pc.abs(
                    pc.subtract(t.column(val_col), t.column("median"))
                ),
            }
        )

    mad = grouped_exact_median(
        joined.map_batches(dev, batch_format="pyarrow"),
        key_cols, "dev", out_col="mad", n_buckets=n_buckets,
    )
    return bucketed_hash_join(
        med, mad, on=key, n_buckets=n_buckets,
        left_schema=med_schema,
        right_schema=pa.schema([(key, pa.int64()), ("mad", pa.int64())]),
    )


# --------------------------------------------------------------------------
# HyperLogLog distinct count (Flajolet et al. 2007) — the register-array
# companion to KMV: fixed m int8-ish registers instead of k hashes, so the
# merge is a per-bucket max and the accumulator never grows with k.

_HLL_M = 16          # registers (b = 4 index bits)
_HLL_REST_BITS = 56  # 60-bit md5 hash minus the 4 index bits
_HLL_ALPHA = (673, 1000)  # alpha_16 = 0.673 as an exact rational


def _hll_rho(rest: int) -> int:
    """Position (1-based) of the first 1-bit in the ``_HLL_REST_BITS``-wide
    remainder; all-zero remainder saturates at REST_BITS + 1."""
    return _HLL_REST_BITS + 1 - rest.bit_length()


class HllPartial:
    """Per-batch HLL partial: one (bucket, mx) row per non-empty register.

    Distinct values hashed once each (md5-u60, the registry-wide
    SQL-expressible hash); movement is <= tasks x m rows, corpus-size
    independent — registers merge with a plain grouped max."""

    def __init__(self, col: str):
        # m is pinned to _HLL_M: the bucket shift and the alpha constant
        # are both m-specific, and the oracle SQL transcribes them as
        # literals — a runtime m knob would silently desync the two.
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = batch.column(self.col).to_pylist()
        regs: dict[int, int] = {}
        mask = (1 << _HLL_REST_BITS) - 1
        for v in set(vals):
            h = _md5_u60(str(v))
            bucket = h >> _HLL_REST_BITS
            rho = _hll_rho(h & mask)
            if rho > regs.get(bucket, 0):
                regs[bucket] = rho
        b = sorted(regs)
        return pa.table(
            {
                "bucket": pa.array(b, pa.int64()),
                "mx": pa.array([regs[x] for x in b], pa.int64()),
            }
        )


def hll_estimate_from_registers(regs: dict[int, int]) -> int:
    """Raw HLL estimator, integer-exact: with R = REST_BITS + 1,
    ``sum(2^-M[j]) = sum(2^(R - M[j])) / 2^R`` (empty register => M = 0),
    so ``E = alpha * m^2 / sum(2^-M)`` becomes one Python-bigint floor
    division — bit-replicable in SQL via HUGEINT.  No small-range linear
    counting correction (ln is not rational); the raw estimate is the
    contract and is itself hash-checked."""
    r = _HLL_REST_BITS + 1
    m = _HLL_M
    s = sum(1 << (r - regs.get(j, 0)) for j in range(m))
    num, den = _HLL_ALPHA
    return (num * m * m * (1 << r)) // (den * s)


def hll_distinct_count(ds, col: str) -> int:
    """Distributed HLL distinct-count estimate of ``ds[col]``: per-batch
    register partials (tasks x m rows to the driver, nothing else), a
    tiny grouped-max merge, then the exact-integer estimator."""
    part = ds.map_batches(HllPartial(col=col), batch_format="pyarrow")
    df = part.to_pandas()  # bounded: <= tasks * m rows
    merged = df.groupby("bucket")["mx"].max().to_dict()
    return hll_estimate_from_registers(merged)
