"""Key-hash exchanges and join strategies.

* ``keyed_exchange`` — THE single-input exchange: bucket rows on their
  key hash, sort-based ``groupby("__bucket")``, one vectorized reduce
  per whole bucket.  Grouped aggregates, per-key window/sequence
  reduces and the KG edge reduce all run on it (``bucketed_group_agg``
  is a thin client).
* ``keyed_runs`` — THE ordered per-key reduce, built on
  ``keyed_exchange``: each bucket sorted stably by (keys, order) and
  handed to the reduce with one ``first`` mask marking where each key's
  run starts (``run_starts`` maps it to run-start positions).  The
  window, sequence and session operators, ``banded_self_pairs``, the
  grouped median and the budget cut keep only their own arithmetic.
* ``keyed_cogroup`` — THE two-input exchange, built on
  ``keyed_exchange``'s bucket shuffle: tag each side with ``__side``,
  pad both to one schema and add the key's bucket in the same map
  (``_tagged_union``, the one home of the int-upcast guard
  ``_structural_pad``), union, coalesce, shuffle, and hand
  a merge function each bucket's two sides as separate frames.  The
  hash, anti, as-of, interval and nearest joins, ``diff.snapshot_diff``
  and ``compaction.apply_cdc_delta`` are merge functions over it.
* ``add_group_bucket`` — THE bucket hash, shared by both exchanges, so
  equal keys meet in one bucket whichever operator put them there.
* ``broadcast_lookup_join`` — small side broadcast as a dict; vectorized
  pandas map inside ``map_batches``.  No shuffle.  THE default when one
  side fits in memory (dimension tables, vocab, alias dicts).
* ``bucketed_hash_join`` — both sides large: one ``keyed_cogroup`` on
  the key, a pandas merge per bucket.  B (``n_buckets``) sets merge
  granularity.  This is the portable partitioned hash join that works
  on any Ray version (``Dataset.join`` landed only recently) and keeps
  B and skew handling explicit.
* ``broadcast_semi_join`` / ``broadcast_anti_join`` — key-set broadcast,
  vectorized ``is_in`` filter.  No shuffle.
* ``asof_join_bucketed`` / ``interval_join_bucketed`` /
  ``nearest_join_bucketed`` — non-equi joins Ray Data has no native
  operator for: a ``keyed_cogroup`` on the key, then a sorted
  ``merge_asof`` / equi-merge + between-filter per bucket.
* ``range_merge_join`` — the one two-input join NOT on a key hash: the
  same tagged union, grouped by equi-depth key-range id.

Skew note: a hot join key floods one bucket; the fix is salting the
probe side and replicating the build side per salt — implemented as
``bucketed_hash_join(..., salt=N)``, where the salt is a second key
column (see stages/skew.py for the aggregation analog).  The KG
pipeline itself avoids keyed skew by pre-aggregating before every
shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from gliner_cpp_ray.stages.sizing import default_buckets

_KNUTH = np.uint64(2654435761)


def _nul_free(col):
    """``col`` with NUL mapped to ``"\\x01"`` if it holds strings: the
    pandas hash stops at a string's first NUL."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return pc.replace_substring(col, "\x00", "\x01")
    return col


def add_group_bucket(batch: pa.Table, keys: list[str], n_buckets: int,
                     out_col: str = "__bucket") -> pa.Table:
    """THE bucket hash of every key-hash exchange: all-integer key
    tuples mix with wrapping multiply-add (a single integer key ``k``
    lands in ``(k * 2654435761 >> 16) % n_buckets``); anything else
    hashes the key-column frame via ``pd.util.hash_pandas_object``.
    Both are process-stable (no ``PYTHONHASHSEED`` dependence), so a
    reduce may recompute bucket ownership with this same function.

    The pandas hash stops at a string's first NUL, so NUL maps to
    ``"\\x01"`` first: equal keys still meet, NUL-free keys keep their
    bucket, and a collision with a real ``"\\x01"`` only shares a bucket
    (every reduce is key-local)."""
    cols = [_nul_free(batch.column(k)) for k in keys]
    if all(pa.types.is_integer(c.type) for c in cols):
        h = np.zeros(batch.num_rows, dtype=np.uint64)
        for c in cols:
            v = c.cast(pa.int64()).to_numpy(zero_copy_only=False)
            h = (h * np.uint64(0x9E3779B97F4A7C15)
                 + v.astype(np.uint64) * _KNUTH)
        h >>= np.uint64(16)
    else:
        h = pd.util.hash_pandas_object(
            pd.DataFrame({k: c.to_pandas() for k, c in zip(keys, cols)}),
            index=False,
        ).to_numpy()
    bucket = (h % np.uint64(n_buckets)).astype(np.int64)
    return batch.append_column(out_col, pa.array(bucket))


def keyed_exchange(ds, keys, reduce_fn, n_buckets: int | None = None):
    """THE single-input key-hash exchange: bucket every row on
    ``add_group_bucket(keys)``, shuffle with the sort-based
    ``groupby("__bucket")`` and run ``reduce_fn`` once per WHOLE bucket
    (a pandas frame holding every row of every key in it, ``__bucket``
    already dropped).  ``reduce_fn`` returns a pandas frame or an Arrow
    table; it must be key-local — its output for a key may depend only
    on that key's rows, never on which other keys share the bucket.

    Bucketing (not ``groupby(keys)``) turns one Python ``map_groups``
    call per distinct key into ``n_buckets`` vectorized reduces.  The
    sort-based groupby stays the one strategy: Ray's hash-shuffle
    ``repartition(keys=)`` measured slower at these sizes (ROADMAP
    item 5).  Callers that coalesce first ``repartition`` the input
    themselves."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    n_buckets = default_buckets(n_buckets)
    return _bucket_groups(
        ds.map_batches(lambda t: add_group_bucket(t, keys, n_buckets),
                       batch_format="pyarrow"),
        reduce_fn,
    )


def _bucket_groups(ds, reduce_fn):
    """THE bucket shuffle of every exchange: the sort-based
    ``groupby("__bucket")`` over rows that already carry their bucket,
    then ``reduce_fn`` once per whole bucket with ``__bucket`` dropped.
    ``keyed_exchange`` adds the bucket in its own map; the two-input
    exchanges add it in each side's tag/pad map, before the union —
    Ray fuses a map into the operator BEFORE it, never into one after
    an all-to-all, so a hash map behind the coalescing ``repartition``
    would run as an operator of its own."""
    return ds.groupby("__bucket").map_groups(
        lambda g: reduce_fn(g.drop(columns="__bucket")),
        batch_format="pandas",
    )


def keyed_runs(ds, keys, order, reduce_fn, n_buckets: int | None = None):
    """THE ordered per-key reduce, built on ``keyed_exchange``: each
    bucket's rows are sorted stably by ``(*keys, *order)`` and handed
    to ``reduce_fn(g, first)``, where ``first`` is True at row 0 and
    wherever any key column changes — each key's rows form one run
    that starts at a ``first`` row.  The reduce adds only its own
    arithmetic (``run_starts`` gives every row its run's start)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    by = [*keys, *order]

    def reduce(g: pd.DataFrame):
        g = g.sort_values(by, kind="stable")
        same = np.zeros(len(g), dtype=bool)
        same[1:] = True
        for k in keys:
            kv = g[k].to_numpy()
            same[1:] &= kv[1:] == kv[:-1]
        return reduce_fn(g, ~same)

    return keyed_exchange(ds, keys, reduce, n_buckets)


def run_starts(first: np.ndarray) -> np.ndarray:
    """Each row's position of its run's first row (``first`` as
    ``keyed_runs`` passes it); ``arange - run_starts`` is the row's
    0-based ordinal within its key."""
    pos = np.arange(len(first), dtype=np.int64)
    return np.maximum.accumulate(np.where(first, pos, 0))


def bucketed_group_agg(ds, keys, agg: str | None = None,
                       val_col: str | None = None, out_col: str = "n",
                       n_buckets: int | None = None,
                       specs: list[tuple[str, str | None, str]] | None = None):
    """High-cardinality grouped aggregate: ONE key-hash bucket shuffle,
    then a C-level pandas groupby per WHOLE bucket, Arrow back out.

    ``Dataset.groupby(key).aggregate(...)`` walks distinct keys in a
    Python loop inside its reduce — fine for bounded key sets (event
    types, languages), pathological when keys scale with the corpus
    (node ids, content hashes, gram hashes: measured 12 s → 1.5 s on a
    1.4M-key count at sf0.1).  This helper is the drop-in for those
    sites.  Single aggregate: ``agg`` in 'sum' | 'min' | 'max' (needs
    ``val_col``) or 'count'; several aggregates over the same keys:
    ``specs=[(agg, val_col_or_None, out_col), ...]``.  Output columns:
    (*keys, *outs); every out column is int64."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if specs is None:
        specs = [(agg, val_col, out_col)]

    def reduce(g: pd.DataFrame) -> pa.Table:
        grp = g.groupby(keys, sort=False)
        outs = []
        for a, v, o in specs:
            s = grp.size() if a == "count" else grp[v].agg(a)
            outs.append(s.rename(o).astype(np.int64))
        out = pd.concat(outs, axis=1).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    return keyed_exchange(ds, keys, reduce, n_buckets)


def _structural_pad(n: int, typ: pa.DataType) -> pa.Array:
    """Padding for a column the OTHER side of a tagged union doesn't
    carry.  Merges never READ padded cells (``_tagged_union`` splits
    each group back into its sides' own columns), so the pad is purely
    structural — but it must not poison the block conversion:
    ``pa.nulls`` in an int64 column makes Ray's Arrow→pandas block
    conversion upcast the WHOLE column to float64, silently rounding
    the REAL side's values past 2^53 (md5-u60 keys corrupted; caught by
    kg_entity_components).  Integer and timestamp-as-int columns pad
    with zeros instead; types pandas represents losslessly keep
    nulls."""
    if pa.types.is_integer(typ):
        return pa.array(np.zeros(n, np.int64), typ)
    return pa.nulls(n, typ)


def _as_arrow_type(t) -> pa.DataType:
    """Normalize a ``ray.data.Schema`` type entry to Arrow: for
    arrow-block datasets it already IS a ``pa.DataType``, but for
    pandas-block datasets Ray reports numpy dtypes (and bare ``object``
    for strings)."""
    if isinstance(t, pa.DataType):
        return t
    if t is object or getattr(t, "kind", None) == "O":
        return pa.string()
    return pa.from_numpy_dtype(t)


def arrow_schema(ds, explicit: pa.Schema | None = None) -> pa.Schema:
    """``explicit`` when given, else ``ds.schema()`` as Arrow.  On a plan
    that ends in a shuffle (groupby/aggregate/sort) ``ds.schema()``
    EXECUTES the whole shuffle just to learn the schema, and a join then
    executes it again — a silent 2× on that input; callers that know
    the schema statically pass it.  (Reads/maps pay a cheap limit-1
    probe; materialized inputs are free.)"""
    if explicit is not None:
        return explicit
    s = ds.schema()
    return pa.schema([(n, _as_arrow_type(t)) for n, t in zip(s.names, s.types)])


def _restore_int_dtypes(df: pd.DataFrame, int_cols: set) -> pd.DataFrame:
    # a real null in an int64 column (or a merge's missing match) makes
    # pandas hold it as float64 — restore nullable Int64 so aggregates
    # stay integer and hash-match integer oracles
    for c in df.columns:
        if c in int_cols and df[c].dtype.kind == "f":
            df[c] = df[c].astype("Int64")
    return df


def _int_names(schema: pa.Schema) -> set:
    return {f.name for f in schema if pa.types.is_integer(f.type)}


def _tagged_union(left, right, n_parts: int, left_schema: pa.Schema,
                  right_schema: pa.Schema, bucket):
    """THE input of every two-input exchange: tag each side's rows with
    ``__side``, pad both to one schema (the left's columns, then the
    right's own) with ``_structural_pad``, add each row's ``__bucket``
    (``bucket(table)`` appends it, in the same map), union, and coalesce to
    ``max(n_parts, 8)`` blocks — the union arrives as one sliver block
    per upstream task (e.g. 128 × ~1.5k rows), and the shuffle's sort
    pays per-block fixed costs that dwarf the data at that granularity.

    Each side carries exactly its schema's columns (extra batch columns
    drop).  Returns ``(union, split)``: ``split(group)`` turns a shuffled
    pandas group back into ``(left_frame, right_frame)``, each with only
    its own side's columns and integer dtypes restored."""
    fields = list(left_schema) + [
        f for f in right_schema if f.name not in left_schema.names
    ]

    def pad(side: int, own: set):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {
                f.name: t.column(f.name) if f.name in own
                else _structural_pad(n, f.type)
                for f in fields
            }
            cols["__side"] = pa.array(np.full(n, side, np.int8))
            return bucket(pa.table(cols))

        return fn

    union = (
        left.map_batches(pad(0, set(left_schema.names)), batch_format="pyarrow")
        .union(right.map_batches(pad(1, set(right_schema.names)),
                                 batch_format="pyarrow"))
        .repartition(max(n_parts, 8))
    )
    lcols, rcols = list(left_schema.names), list(right_schema.names)
    int_cols = _int_names(pa.schema(fields))

    def split(g: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
        side = g["__side"].to_numpy()
        return (_restore_int_dtypes(g.loc[side == 0, lcols], int_cols),
                _restore_int_dtypes(g.loc[side == 1, rcols], int_cols))

    return union, split


def keyed_cogroup(left, right, keys, merge_fn, n_buckets: int | None = None,
                  left_schema: pa.Schema | None = None,
                  right_schema: pa.Schema | None = None):
    """THE two-input key-hash exchange, on ``keyed_exchange``: both
    sides go through ``_tagged_union`` and one key-hash shuffle over
    ``keys`` (columns both sides carry), so every row of a key, from
    either side, meets in one bucket.  ``merge_fn(lg, rg)`` runs once
    per WHOLE bucket with two pandas frames, each holding only its own
    side's columns (integer dtypes restored; no ``__side`` or
    ``__bucket``) — either may be empty.  It returns a pandas frame or
    an Arrow table and must be key-local.

    ``left_schema`` / ``right_schema``: each side's columns and types
    (see ``arrow_schema``); pass them when a side's plan ends in a
    shuffle."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    n_buckets = default_buckets(n_buckets)
    union, split = _tagged_union(
        left, right, n_buckets,
        arrow_schema(left, left_schema), arrow_schema(right, right_schema),
        lambda t: add_group_bucket(t, keys, n_buckets),
    )
    return _bucket_groups(union, lambda g: merge_fn(*split(g)))


def _merged_to_arrow(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """Convert a per-bucket merge result to an Arrow block with the
    declared join schema (extra columns drop; integer columns a missing
    match turned float come back as ints).  Emitting Arrow (not pandas)
    from the merge matters downstream: Ray's sort-based
    groupby/aggregate over pandas blocks with nullable Int64 extension
    columns runs an object path that measured 17x slower than the same
    aggregate over Arrow int64 blocks (22.7s vs 1.3s on a 600k-row join
    output at sf0.1)."""
    return pa.Table.from_pandas(
        _restore_int_dtypes(df, _int_names(schema)), schema=schema,
        preserve_index=False,
    )


def _join_schemas(left, right, key: str):
    """``(left, right, joined)`` schemas of a key join: the joined
    schema is the left's columns, then the right's minus ``key``."""
    ls, rs = arrow_schema(left), arrow_schema(right)
    return ls, rs, pa.schema(list(ls) + [f for f in rs if f.name != key])


def bucketed_hash_join(left, right, on: str, n_buckets: int | None = None,
                       how: str = "inner", suffix: str = "_r",
                       left_schema: pa.Schema | None = None,
                       right_schema: pa.Schema | None = None,
                       salt: int = 1):
    """Partitioned hash join of two Datasets on a key column — a
    ``keyed_cogroup`` whose merge is a per-bucket pandas merge.

    ``how`` in {"inner", "left"}.  Right-side columns that collide with
    left names (other than ``on``) are renamed with ``suffix`` first.

    ``salt`` (default 1 = off): hot-key handling.  A key holding a
    large fraction of the LEFT side floods one bucket group, and that
    group's merge becomes the straggler (and the peak-memory site).
    With ``salt=N`` each left row gets ``__salt = row position % N``,
    every RIGHT row is replicated N times with ``__salt`` 0…N−1, and
    the exchange keys on ``(on, __salt)`` over ``n_buckets·N`` buckets —
    the hot key's left rows spread over up to N buckets at the cost of
    N× the (small) right side.  The merge matches on ``(on, __salt)``,
    so each left row meets exactly one replica and inner/left semantics
    are unchanged.  Use when the left side is probe-heavy with known
    skew and the right side is the smaller build side.

    ``left_schema`` / ``right_schema``: optional explicit Arrow schemas
    (see ``arrow_schema``): pass them when a side's plan ends in a
    shuffle, or the join executes that shuffle twice.
    """
    if how not in ("inner", "left"):
        raise ValueError("how must be 'inner' or 'left'")
    if salt < 1:
        raise ValueError("salt must be >= 1")
    n_buckets = default_buckets(n_buckets)
    ls, rs = arrow_schema(left, left_schema), arrow_schema(right, right_schema)
    rename = {c: c + suffix for c in rs.names if c != on and c in ls.names}
    if rename:
        # portable rename (Dataset.rename_columns trips on pandas blocks)
        right = right.map_batches(
            lambda t: t.rename_columns([rename.get(c, c) for c in t.schema.names]),
            batch_format="pyarrow",
        )
        rs = pa.schema([f.with_name(rename.get(f.name, f.name)) for f in rs])
    out_schema = pa.schema(list(ls) + [f for f in rs if f.name != on])
    keys = [on]
    if salt > 1:
        keys.append("__salt")
        left = left.map_batches(
            lambda t: t.append_column(
                "__salt", pa.array(np.arange(t.num_rows, dtype=np.int64) % salt)
            ),
            batch_format="pyarrow",
        )
        right = right.map_batches(
            lambda t: pa.concat_tables([
                t.append_column("__salt", pa.array(np.full(t.num_rows, s, np.int64)))
                for s in range(salt)
            ]),
            batch_format="pyarrow",
        )
        ls = ls.append(pa.field("__salt", pa.int64()))
        rs = rs.append(pa.field("__salt", pa.int64()))

    # a left join's right integer columns are nullable: one pandas dtype
    # in every bucket, so a block Ray concatenates from several buckets
    # never holds nulls under int64 pandas metadata (which reads back
    # as float64)
    nullable = {
        f.name: "Int64" for f in rs
        if how == "left" and f.name not in keys and pa.types.is_integer(f.type)
    }

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pa.Table:
        if how == "inner" and (lg.empty or rg.empty):
            return out_schema.empty_table()
        m = lg.merge(rg, on=keys, how=how)
        return _merged_to_arrow(m.astype(nullable) if nullable else m, out_schema)

    return keyed_cogroup(left, right, keys, merge, n_buckets * salt, ls, rs)


def asof_join_bucketed(left, right, key: str, left_ts: str, right_ts: str,
                       tiebreak: str, n_buckets: int | None = None):
    """Distributed backward as-of join (an operator Ray Data lacks):
    for each left row, attach the right row with the largest
    ``right_ts <= left_ts`` for the same ``key`` — ties on ``right_ts``
    broken by the largest ``tiebreak`` value.

    Semantics match pandas ``merge_asof(direction="backward")`` and the
    SQL window form ``row_number() OVER (PARTITION BY left_row ORDER BY
    right_ts DESC, tiebreak DESC) = 1``.  Inner semantics: left rows
    with no match are dropped.

    Partitioning assumption: all rows of a key land in one hash bucket
    (``keyed_cogroup``); within a bucket the merge sorts both sides by
    timestamp, so cost is O(bucket log bucket), never all-pairs.
    """
    ls, rs, out_schema = _join_schemas(left, right, key)

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pa.Table:
        if lg.empty or rg.empty:
            return out_schema.empty_table()
        # rg sorted by (ts, tiebreak): merge_asof takes the LAST row with
        # right_ts <= left_ts per group, i.e. max-ts then max-tiebreak
        m = pd.merge_asof(
            lg.sort_values(left_ts), rg.sort_values([right_ts, tiebreak]),
            left_on=left_ts, right_on=right_ts, by=key,
            direction="backward", allow_exact_matches=True,
        )
        return _merged_to_arrow(m.dropna(subset=[right_ts]), out_schema)

    return keyed_cogroup(left, right, key, merge, n_buckets, ls, rs)


def interval_join_bucketed(points, intervals, key: str, point_col: str,
                           lo_col: str, hi_col: str, n_buckets: int | None = None):
    """Distributed interval (range) join: inner-join each point row to
    every interval row of the same ``key`` with ``lo <= point < hi``.

    Both sides may be corpus-sized; they are co-partitioned by hashing
    ``key`` (one ``keyed_cogroup``), and each bucket group does a
    vectorized equi-merge on ``key`` followed by a between-filter — so
    per-bucket cost is O(matching key pairs), not bucket².  Half-open
    ``[lo, hi)`` matches the SQL ``p >= lo AND p < hi``.
    """
    ps, is_, out_schema = _join_schemas(points, intervals, key)

    def merge(pg: pd.DataFrame, ig: pd.DataFrame) -> pa.Table:
        if pg.empty or ig.empty:
            return out_schema.empty_table()
        m = pg.merge(ig, on=key, how="inner")
        m = m[(m[point_col] >= m[lo_col]) & (m[point_col] < m[hi_col])]
        return _merged_to_arrow(m, out_schema)

    return keyed_cogroup(points, intervals, key, merge, n_buckets, ps, is_)


def broadcast_lookup_join(ds, lookup: dict, key: str, out_col: str,
                          default=None):
    """Map-side join against a broadcast dict (pass a small dict, or at
    cluster scale ``ray.get`` an object ref inside the fn)."""

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        df[out_col] = df[key].map(lookup)
        if default is not None:
            df[out_col] = df[out_col].fillna(default)
        return df

    return ds.map_batches(attach, batch_format="pandas")


def broadcast_semi_join(ds, keys, key: str):
    """Keep rows whose key is in the broadcast key set."""
    key_arr = pa.array(sorted(keys))

    def filt(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column(key), value_set=key_arr))

    return ds.map_batches(filt, batch_format="pyarrow")


def broadcast_anti_join(ds, keys, key: str):
    """Drop rows whose key is in the broadcast key set."""
    key_arr = pa.array(sorted(keys))

    def filt(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.is_in(t.column(key), value_set=key_arr))
        )

    return ds.map_batches(filt, batch_format="pyarrow")


# --- Bloom-prefiltered semi join ------------------------------------------
#
# The scale path between the two semi-join extremes: when the right key
# set is too big to broadcast exactly (broadcast_semi_join) but the left
# side is so much bigger that shuffling it all into a bucketed join is
# wasteful.  A Bloom filter of the right keys is built distributively
# (fixed-size bitmap partials OR-merged by one global aggregate — the
# accumulator is n_bits/8 bytes regardless of corpus size), broadcast
# once via ray.put, and applied map-side: rows whose key is definitely
# absent never enter the shuffle.  Possible false positives are removed
# by an exact bucketed join of the (small) surviving fraction, so the
# result is EXACT — the bloom only cuts shuffle volume.
#
# The same structure extends to anti join: bloom-negative rows are
# definite keeps that bypass the shuffle; only bloom-positive rows need
# the exact anti check.

_SPLITMIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_2 = np.uint64(0x94D049BB133111EB)


def _key_hash_u64(col) -> np.ndarray:
    """Stable full-width u64 hash of a key column: splitmix64 finalizer
    for integers (public-domain mixing constants), the process-stable
    pandas hash otherwise (NUL mapped as in ``add_group_bucket``) — the
    same family ``add_group_bucket`` uses."""
    with np.errstate(over="ignore"):
        if pa.types.is_integer(col.type):
            z = col.cast(pa.int64()).to_numpy(zero_copy_only=False).astype(
                np.uint64
            )
            z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_1
            z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_2
            return z ^ (z >> np.uint64(31))
        return pd.util.hash_pandas_object(
            _nul_free(col).to_pandas(), index=False
        ).to_numpy().astype(np.uint64)


def _bloom_positions(h: np.ndarray, n_bits: int, n_hashes: int):
    """Double hashing: pos_i = (h1 + i·h2) mod n_bits, h2 forced odd so
    the probe sequence covers the table for power-of-two n_bits."""
    nb = np.uint64(n_bits)
    h1 = h % nb
    h2 = ((h >> np.uint64(32)) | np.uint64(1)) % nb
    with np.errstate(over="ignore"):
        for i in range(n_hashes):
            yield (h1 + np.uint64(i) * h2) % nb


def _bloom_set(bits: np.ndarray, keys_col, n_hashes: int) -> np.ndarray:
    h = _key_hash_u64(keys_col)
    n_bits = len(bits) * 8
    for pos in _bloom_positions(h, n_bits, n_hashes):
        np.bitwise_or.at(
            bits,
            (pos >> np.uint64(3)).astype(np.int64),
            (np.uint64(1) << (pos & np.uint64(7))).astype(np.uint8),
        )
    return bits


def _bloom_member(bits: np.ndarray, keys_col, n_hashes: int) -> np.ndarray:
    h = _key_hash_u64(keys_col)
    n_bits = len(bits) * 8
    member = np.ones(len(h), bool)
    for pos in _bloom_positions(h, n_bits, n_hashes):
        mask = (np.uint64(1) << (pos & np.uint64(7))).astype(np.uint8)
        member &= (bits[(pos >> np.uint64(3)).astype(np.int64)] & mask) != 0
    return member


def build_bloom(keys_ds, key: str, n_bits: int = 1 << 23,
                n_hashes: int = 4) -> np.ndarray:
    """Distributed Bloom build: one global AggregateFn whose accumulator
    is the fixed-size bitmap — per-block OR accumulation, tree OR merge.
    Data movement is O(tasks · n_bits/8) bitmap bytes, never key rows."""
    from ray.data.aggregate import AggregateFn

    def acc_block(bits: np.ndarray, block) -> np.ndarray:
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        return _bloom_set(bits.copy(), t.column(key), n_hashes)

    agg = AggregateFn(
        init=lambda k: np.zeros(n_bits // 8, np.uint8),
        merge=lambda a, b: a | b,
        accumulate_block=acc_block,
        name="bloom",
    )
    return keys_ds.aggregate(agg)["bloom"]


def _distinct_keys_gate(right, on: str, broadcast_threshold: int,
                        broadcast_byte_cap: int):
    """The Bloom joins' shared prologue: ``right``'s DISTINCT ``on``
    keys, materialized (key-cardinality bounded; avoids schema
    re-execution), and the exact key set as an Arrow array when it
    passes the broadcast gate (count <= ``broadcast_threshold`` AND
    bytes <= ``broadcast_byte_cap``), else None."""
    from ray.data.aggregate import Count

    distinct_keys = (
        right.groupby(on)
        .aggregate(Count(alias_name="__n"))
        .select_columns([on])
        .materialize()
    )
    if (
        distinct_keys.count() <= broadcast_threshold
        and distinct_keys.size_bytes() <= broadcast_byte_cap
    ):
        keys = distinct_keys.to_pandas()[on].to_numpy()
        return distinct_keys, pa.array(keys)
    return distinct_keys, None


def bloom_semi_join(left, right, on: str, n_bits: int = 1 << 23,
                    n_hashes: int = 4, n_buckets: int | None = None,
                    broadcast_threshold: int = 1_000_000,
                    broadcast_byte_cap: int = 64 << 20):
    """EXACT semi join with an ADAPTIVE physical plan: keep the left
    rows whose key appears in ``right``.  Returns left columns only.

    Small right side (distinct keys <= ``broadcast_threshold`` AND
    total key bytes <= ``broadcast_byte_cap``): the exact key set
    broadcasts once (plain instance state through the object store) and
    the semi join is a pure map-side ``is_in`` filter — ZERO shuffle of
    the big side.  This is the classic dimension-filter plan; 10^6
    int64 keys is ~8 MB of broadcast.  The byte cap matters for wide
    STRING keys (urls, digests), where a count gate alone would let the
    driver pull and every task hold an arbitrarily large value set.

    Large right side: Bloom prefilter + exact verify —
    1. bloom = distributed OR-aggregate over right keys (bitmap
       broadcast once via ``ray.put``);
    2. left rows failing the bloom test are dropped map-side (zero
       shuffle for them);
    3. survivors (true matches + bloom false positives) are verified by
       an exact bucketed join against the DISTINCT right keys.

    At a 1% false-positive rate (n_bits ≈ 10 bits/key) a 100 TB left
    side joining a 1%-selectivity right key set shuffles ~2% of its
    rows instead of 100%."""
    import ray

    distinct_keys, key_arr = _distinct_keys_gate(
        right, on, broadcast_threshold, broadcast_byte_cap
    )
    if key_arr is not None:

        def exact_filter(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t.column(on), value_set=key_arr))

        return left.map_batches(exact_filter, batch_format="pyarrow")

    bits_ref = ray.put(build_bloom(right, on, n_bits, n_hashes))

    def prefilter(t: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)  # zero-copy plasma read, once per task
        return t.filter(pa.array(_bloom_member(b, t.column(on), n_hashes)))

    survivors = left.map_batches(prefilter, batch_format="pyarrow")
    return bucketed_hash_join(
        survivors, distinct_keys, on=on, n_buckets=n_buckets, how="inner"
    )


def bloom_anti_join(left, right, on: str, n_bits: int = 1 << 23,
                    n_hashes: int = 4, broadcast_threshold: int = 1_000_000,
                    broadcast_byte_cap: int = 64 << 20):
    """EXACT anti join with the same adaptive plan as
    ``bloom_semi_join``: keep the left rows whose key does NOT appear
    in ``right``.  Returns left columns only.

    Small right side: the exact key set broadcasts once and the anti
    join is a pure map-side inverted ``is_in`` — zero shuffle.

    Large right side: the Bloom split flips roles versus the semi
    join — a bloom MISS proves the key is absent from ``right``, so
    bloom-negative left rows are DEFINITE KEEPS emitted map-side
    without ever entering a shuffle; only bloom-positive rows (true
    matches to drop + false positives to rescue) go through the exact
    bucketed anti check against the distinct right keys.  With a
    typical anti join ("rows NOT seen before") most left rows miss the
    bloom, so the shuffled fraction ≈ match rate + FP rate."""
    import ray

    distinct_keys, key_arr = _distinct_keys_gate(
        right, on, broadcast_threshold, broadcast_byte_cap
    )
    if key_arr is not None:

        def exact_filter(t: pa.Table) -> pa.Table:
            return t.filter(
                pc.invert(pc.is_in(t.column(on), value_set=key_arr))
            )

        return left.map_batches(exact_filter, batch_format="pyarrow")

    bits_ref = ray.put(build_bloom(right, on, n_bits, n_hashes))

    def split(keep_side: bool):
        def fn(t: pa.Table) -> pa.Table:
            b = ray.get(bits_ref)  # zero-copy plasma read, once per task
            member = _bloom_member(b, t.column(on), n_hashes)
            return t.filter(pa.array(member if keep_side else ~member))

        return fn

    definite_keeps = left.map_batches(split(False), batch_format="pyarrow")
    suspects = left.map_batches(split(True), batch_format="pyarrow")
    rescued = bucketed_anti_join(suspects, distinct_keys, on=on)
    return definite_keeps.union(rescued)


def bucketed_anti_join(left, right_keys, on: str,
                       n_buckets: int | None = None):
    """Partitioned exact anti join: left rows whose key has no match in
    ``right_keys`` (a Dataset holding at least the ``on`` column).  One
    ``keyed_cogroup`` of both sides (the right projected to ``on``);
    per-bucket vectorized ``isin`` inversion."""
    ls = arrow_schema(left)

    def merge(lg: pd.DataFrame, rk: pd.DataFrame) -> pa.Table:
        if lg.empty:
            return ls.empty_table()
        return _merged_to_arrow(lg[~lg[on].isin(rk[on])], ls)

    return keyed_cogroup(
        left, right_keys, on, merge, n_buckets, ls, pa.schema([ls.field(on)])
    )


def banded_self_pairs(ds, key_cols: list[str], ts_col: str, id_col: str,
                      band: int, pair_limit_per_bucket: int = 50_000_000):
    """Banded (within-δ) self-join — the stream-stream join primitive:
    all ordered pairs of rows sharing a key whose timestamps are at
    most ``band`` apart (successor strictly greater under (ts, id), so
    each unordered pair emits exactly once, smaller id first on ties).
    Session stitching, retry/duplicate-burst mining, co-event features.

    -> Dataset(<id>_1, <id>_2).

    Scale shape: ONE composite-key-hash bucket shuffle co-locates each
    key; the per-bucket reduce sorts once by (key, ts, id) and finds
    every row's band window with a SINGLE global ``searchsorted`` —
    per-key timelines are made globally monotone by adding
    ``run_id * stride`` (stride > global ts span + band), so no per-key
    Python loop exists.  Pair emission is the vectorized grouped-arange
    expansion.  Output volume is (key activity density x band)-bounded,
    NOT corpus-bounded — ``pair_limit_per_bucket`` fails loudly instead
    of OOMing when a hot key's quadratic blowup exceeds it (remedies:
    smaller band, or pre-aggregate the hot key).
    """
    if band < 0:
        raise ValueError("band must be >= 0")
    out_1, out_2 = f"{id_col}_1", f"{id_col}_2"

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        empty = pd.DataFrame(
            {out_1: np.zeros(0, np.int64), out_2: np.zeros(0, np.int64)}
        )
        if len(g) < 2:
            return empty
        if g[ts_col].dtype.kind not in "iu":
            # a datetime64 column would silently flip the band's unit
            # (pandas surfaces ns); make the caller quantize explicitly
            raise TypeError(
                f"banded_self_pairs needs an integer {ts_col!r} column "
                "in the band's unit (cast timestamps first)"
            )
        ts = g[ts_col].to_numpy().astype(np.int64)
        ids = g[id_col].to_numpy()
        run_id = np.cumsum(first) - 1
        span = int(ts.max()) - int(ts.min())
        stride = span + band + 1
        if int(run_id[-1] + 1) * stride >= (1 << 62):
            raise ValueError(
                "banded_self_pairs: run_count * (span + band) overflows "
                "the monotone-key trick; shrink the band or bucket finer"
            )
        mono = ts + run_id * stride  # globally sorted, runs never overlap
        hi = np.searchsorted(mono, mono + band, side="right")
        n_i = hi - np.arange(len(g)) - 1  # successors within the band
        total = int(n_i.sum())
        if total > pair_limit_per_bucket:
            raise ValueError(
                f"banded_self_pairs: {total} pairs in one bucket exceeds "
                f"pair_limit_per_bucket={pair_limit_per_bucket} (hot key "
                "quadratic blowup) — shrink the band or pre-aggregate"
            )
        if not total:
            return empty
        left = np.repeat(np.arange(len(g)), n_i)
        # grouped arange: each left row i pairs with rows i+1 .. hi-1
        offs = np.concatenate([[0], np.cumsum(n_i)[:-1]])
        right = np.arange(total) - np.repeat(offs, n_i) + left + 1
        return pd.DataFrame({out_1: ids[left], out_2: ids[right]})

    return keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket)


def join_skew_report(left, right, left_key: str, right_key: str,
                     k: int = 10):
    """Join-planning diagnostics — the skew advisor run BEFORE a big
    equi join: for the k join keys that would produce the most output
    rows, report both sides' row counts and the per-key output size
    (their product).  The numbers decide salting factors, broadcast
    eligibility and bucket counts (joins.py docstrings reference
    exactly these quantities); as an operator the report is itself a
    scale-shaped query, not a driver scan.

    -> Dataset(key, n_left, n_right, n_out), top-k by
    (n_out desc, key asc) — keys present on only one side produce no
    output and are excluded (inner-join semantics).

    Movement: each side collapses to (key, n) via its map-side-combined
    grouped count (key-bounded), ONE bucketed join aligns the two count
    tables, and the top-k is the tasks x k global combiner — the fact
    tables themselves never shuffle.
    """
    from gliner_cpp_ray.stages.skew import global_top_k

    counts = []
    for ds, key, out in ((left, left_key, "n_left"),
                         (right, right_key, "n_right")):
        keyed = ds.map_batches(
            lambda t, kk=key: pa.table({"key": t.column(kk).cast(pa.int64())}),
            batch_format="pyarrow",
        )
        counts.append(bucketed_group_agg(keyed, "key", "count", out_col=out))
    cnt_schema = [("key", pa.int64())]
    both = bucketed_hash_join(
        counts[0], counts[1], on="key",
        left_schema=pa.schema(cnt_schema + [("n_left", pa.int64())]),
        right_schema=pa.schema(cnt_schema + [("n_right", pa.int64())]),
    ).map_batches(
        lambda t: t.append_column(
            "n_out",
            pc.multiply(t.column("n_left"), t.column("n_right")),
        ),
        batch_format="pyarrow",
    )
    return global_top_k(both, "n_out", "key", k=k)


def nearest_join_bucketed(left, right, key: str, left_ts: str, right_ts: str,
                          tiebreak: str, n_buckets: int | None = None):
    """Distributed NEAREST-in-time join: for each left row, attach the
    same-key right row minimizing ``|right_ts - left_ts|`` — the sensor/
    log alignment semantics the backward as-of can't express (a reading
    just AFTER the probe is closer than one long before).  Ties:
    equidistant before/after → the EARLIER (backward) row wins; several
    right rows at the chosen timestamp → the largest ``tiebreak``.
    Inner semantics: left rows with no same-key right row drop.

    SQL-replicable as ``row_number() OVER (PARTITION BY left_row ORDER
    BY abs(right_ts - left_ts), (right_ts > left_ts), tiebreak DESC) = 1``.

    Scale shape: identical to ``asof_join_bucketed`` — both sides
    co-partition by key hash, each bucket does TWO ``merge_asof``
    passes (backward + forward, O(bucket log bucket)) and a vectorized
    pick; never all-pairs.

    Both ``*_ts`` columns must be INTEGER (epoch-us) — cast map-side
    before the join; the distance arithmetic is int64-exact (a float64
    path would silently round past 2^53 us)."""
    ls, rs, out_schema = _join_schemas(left, right, key)

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pa.Table:
        if lg.empty or rg.empty:
            return out_schema.empty_table()
        lg = lg.sort_values(left_ts)
        rg_b = rg.sort_values([right_ts, tiebreak])
        back = pd.merge_asof(
            lg, rg_b, left_on=left_ts, right_on=right_ts, by=key,
            direction="backward", allow_exact_matches=True,
        )
        # forward pass wants the FIRST row at the chosen ts to carry the
        # LARGEST tiebreak -> sort tiebreak descending within ts
        rg_f = rg_b.sort_values(
            [right_ts, tiebreak], ascending=[True, False]
        )
        fwd = pd.merge_asof(
            lg, rg_f, left_on=left_ts, right_on=right_ts, by=key,
            direction="forward", allow_exact_matches=True,
        )
        # int64-exact distances (float64 would round past 2^53 us):
        # missing matches get distance MAX so the other side wins
        lv = lg[left_ts].to_numpy(np.int64)
        bna = back[right_ts].isna().to_numpy()
        fna = fwd[right_ts].isna().to_numpy()
        far = np.iinfo(np.int64).max
        db = np.where(
            bna, far, np.abs(lv - back[right_ts].fillna(0).to_numpy(np.int64))
        )
        df_ = np.where(
            fna, far, np.abs(fwd[right_ts].fillna(0).to_numpy(np.int64) - lv)
        )
        use_back = ~bna & (db <= df_)  # backward wins ties
        m = fwd.copy()
        for c in rg.columns:
            m[c] = back[c].where(use_back, fwd[c])
        # inner semantics
        return _merged_to_arrow(m.dropna(subset=[right_ts]), out_schema)

    return keyed_cogroup(left, right, key, merge, n_buckets, ls, rs)


def range_merge_join(left, right, on: str, n_parts: int | None = None,
                     n_rows: int | None = None):
    """Equi-depth RANGE-partitioned sort-merge join (inner) on an int64
    key — the alternative join strategy to ``bucketed_hash_join`` for
    when downstream wants key-clustered output: partitions are
    CONTIGUOUS key ranges (so the join output is range-partitioned by
    the key, ready for a sorted sink or a subsequent merge), and the
    per-partition join is a true merge — sort both sides once, expand
    matches positionally with searchsorted — never a hash table.

    The split points are the exact equi-depth boundaries of the LEFT
    side (stages/sketches.py:exact_multi_order_statistic), so left-side
    volume balances by construction under ANY key skew; the right side
    follows the same ranges (for a fact→dimension join the fact side
    goes LEFT).  Movement: one count + the boundary refinement
    (tasks × bins partial rows per round), then each side moves ONCE
    keyed by range id.  Duplicate keys on both sides produce the full
    per-key cross product, exactly like a hash join.

    ``n_rows``: optional exact left row count.  Pass it when the caller
    knows the count from source metadata (Parquet footers) — it saves
    one full pass over the left plan (``Dataset.count()`` on a
    read→map chain executes the chain)."""
    from gliner_cpp_ray.stages.sketches import exact_multi_order_statistic

    n_parts = default_buckets(n_parts)
    n = left.count() if n_rows is None else int(n_rows)
    if n == 0:
        raise ValueError("left side is empty")
    ranks = sorted({i * n // n_parts for i in range(1, n_parts)} - {0, n})
    bounds = (
        np.array(sorted(set(exact_multi_order_statistic(left, on, ranks))),
                 np.int64)
        if ranks
        else np.array([], np.int64)
    )

    ls, rs, schema = _join_schemas(left, right, on)

    def range_id(t: pa.Table) -> pa.Table:
        k = t.column(on).to_numpy(zero_copy_only=False)
        return t.append_column(
            "__bucket",
            pa.array(np.searchsorted(bounds, k, side="right").astype(np.int64)),
        )

    # the tagged union, bucketed by key RANGE (not hash): the equi-depth
    # balance and range-partitioned output need the range ids as they are
    unioned, split = _tagged_union(left, right, len(bounds) + 1, ls, rs, range_id)
    rcols = [c for c in rs.names if c != on]

    def merge(g: pd.DataFrame) -> pa.Table:
        lg, rg = split(g)
        if not len(lg) or not len(rg):
            return schema.empty_table()
        lg = lg.sort_values(on, kind="mergesort")
        rg = rg.sort_values(on, kind="mergesort")
        lk = lg[on].to_numpy(np.int64)
        rk = rg[on].to_numpy(np.int64)
        lo = np.searchsorted(rk, lk, side="left")
        hi = np.searchsorted(rk, lk, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return schema.empty_table()
        li = np.repeat(np.arange(len(lk)), cnt)
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ri = np.repeat(lo, cnt) + offs
        out = pd.concat(
            [
                lg.iloc[li].reset_index(drop=True),
                rg.iloc[ri][rcols].reset_index(drop=True),
            ],
            axis=1,
        )
        return _merged_to_arrow(out, schema)

    return _bucket_groups(unioned, merge)
