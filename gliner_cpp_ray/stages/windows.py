"""Windowed / stream-shaped aggregation operators over an event log.

Ray Data is a batch engine with no event-time watermarks; stream-shaped
semantics are expressed over the events table treated as an ordered,
partitioned log:

* ``tumbling_counts`` — fixed windows: vectorized bucket assignment in
  ``map_batches`` + one grouped aggregate (partial-friendly);
* ``sliding_counts`` — overlapping windows built FROM the tumbling
  aggregate: each event contributes to ``span/step`` buckets, so the
  slide runs over the (tiny) bucket table, never over raw events —
  and the final rolling pass is SPARSE (searchsorted over the sorted
  present buckets), so a years-wide timestamp range with sparse
  activity costs O(present buckets), never O(range);
* ``session_counts`` — per-key gap-based sessions: one
  ``joins.keyed_runs`` exchange hands each key-hash bucket to the
  reduce sorted by (key, ts) with its key-run starts marked, and the
  reduce counts session starts with one vectorized diff pass — never
  one-row-per-key pandas frames (the reducer anti-pattern).

The per-key ordered operators below (rolling, debounce, lag, sequence
numbers, sessions, gaps, n-grams) all run on ``keyed_runs`` the same
way and add only their own arithmetic.

All emit integer columns for exact oracle comparison.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

US = 1_000_000


def add_time_bucket(batch: pa.Table, ts_col: str = "ts", size_s: int = 3600,
                    out_col: str = "bucket") -> pa.Table:
    us = batch.column(ts_col).cast(pa.int64())
    bucket = pc.divide(us, size_s * US)  # int64 floor division
    return batch.append_column(out_col, bucket)


def tumbling_counts(ds, ts_col: str = "ts", size_s: int = 3600,
                    extra_keys: tuple[str, ...] = ()):
    """-> Dataset(bucket[, *extra_keys], n)."""
    from ray.data.aggregate import Count

    keyed = ds.map_batches(
        add_time_bucket, fn_kwargs={"ts_col": ts_col, "size_s": size_s},
        batch_format="pyarrow",
    )
    keys = ["bucket", *extra_keys]
    return keyed.groupby(keys).aggregate(Count(alias_name="n"))


def sliding_counts(ds, ts_col: str = "ts", step_s: int = 3600,
                   span_steps: int = 3) -> pd.DataFrame:
    """Sliding count: for each step bucket b, events in buckets
    (b - span_steps, b].  Computed from the tumbling aggregate (small),
    finished with a SPARSE rolling sum on the driver: candidate output
    buckets are {p + k : p present, 0 <= k < span} (every such window
    contains p, so all are non-empty and none are missed), and each
    window sum is a cumsum difference located by ``searchsorted`` over
    the sorted present buckets.  Cost is O(present · span), independent
    of the bucket-id RANGE — a sparse log spanning years at fine
    granularity never allocates a dense index."""
    base = tumbling_counts(ds, ts_col, step_s).to_pandas()
    base = base.sort_values("bucket")
    present = base["bucket"].to_numpy(dtype=np.int64)
    counts = base["n"].to_numpy(dtype=np.int64)
    if not len(present):
        return pd.DataFrame(
            {"bucket": np.zeros(0, np.int64), "n_window": np.zeros(0, np.int64)}
        )
    cand = np.unique(
        (present[:, None] + np.arange(span_steps, dtype=np.int64)).ravel()
    )
    # window domain ends at the last populated bucket (matches the SQL
    # form that rolls over generate_series(min(bucket), max(bucket)))
    cand = cand[cand <= present[-1]]
    cs = np.concatenate([[0], np.cumsum(counts)])
    lo = np.searchsorted(present, cand - span_steps, side="right")
    hi = np.searchsorted(present, cand, side="right")
    n_window = cs[hi] - cs[lo]
    return pd.DataFrame({"bucket": cand, "n_window": n_window})


def sessions_per_key_reference(g: pd.DataFrame, key_col: str, ts_col: str,
                               gap_s: int) -> int:
    """Reference semantics for ONE key (documentation + test oracle):
    sessions = 1 + number of sorted-ts gaps exceeding ``gap_s``."""
    ts = g[ts_col].sort_values().to_numpy()
    gaps = np.diff(ts).astype("timedelta64[us]").astype(np.int64)
    return 1 + int((gaps > gap_s * US).sum())


def session_counts(ds, key_col: str = "user_id", ts_col: str = "ts",
                   gap_s: int = 1800, n_buckets: int | None = None):
    """-> Dataset(key, n_sessions): sessions split at > gap_s gaps.

    Scale shape: rows are hash-bucketed by key (ONE shuffle,
    cluster-sized bucket count from stages/sizing.py), and each bucket
    group is reduced with a single vectorized pass — sort by (key, ts),
    diff the timestamps, mark session starts where the key changes OR
    the gap exceeds ``gap_s``, then a C-level groupby-sum per key.  At
    millions of users this does no per-key Python; cost is
    O(bucket log bucket)."""
    from gliner_cpp_ray.stages.joins import keyed_runs

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        new_start = first.copy()
        new_start[1:] |= ts[1:] - ts[:-1] > gap_s * US
        out = (
            pd.DataFrame(
                {key_col: g[key_col].to_numpy(),
                 "n_sessions": new_start.astype(np.int64)}
            )
            .groupby(key_col, sort=False, as_index=False)["n_sessions"]
            .sum()
        )
        out["n_sessions"] = out["n_sessions"].astype(np.int64)
        return out

    return keyed_runs(ds, key_col, [ts_col], reduce_bucket, n_buckets)


def rolling_per_key(ds, key_col: str, ts_col: str, val_col: str,
                    id_col: str, window: int,
                    n_buckets: int | None = None):
    """Per-key ordered ROWS window: for every row, the sum of ``val_col``
    over the last ``window`` rows of its key (inclusive), ordered by
    (ts, id) — the feature-engineering staple (trailing spend, rolling
    activity) and the fourth window shape next to tumbling / sliding /
    session.

    -> Dataset(id, roll_sum) — per-ROW output, so the oracle
    (``sum(v) OVER (PARTITION BY key ORDER BY ts, id ROWS BETWEEN
    window-1 PRECEDING AND CURRENT ROW)``) hash-checks every row's
    window, not just aggregates.

    Scale shape: ONE hash-bucket shuffle co-locates each key's rows;
    the per-bucket reduce is a single sort + a vectorized per-key
    cumsum-difference (int64-exact for the full int64 range — pandas
    ``rolling().sum()`` would round-trip through float64 and silently
    break exactness past 2^53) — no per-key Python."""
    from gliner_cpp_ray.stages.joins import keyed_runs, run_starts

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        # int64-exact rolling sum via per-key cumsum differences —
        # pandas rolling().sum() goes through float64 and silently
        # loses exactness past 2^53; cumsum-shift stays integer
        v = g[val_col].to_numpy(dtype=np.int64)
        rs = run_starts(first)
        cs = np.cumsum(v)
        gcs = cs - cs[rs] + v[rs]
        idx = np.arange(len(g))
        pos = idx - rs
        prev = np.where(pos >= window, idx - window, 0)
        roll = gcs - np.where(pos >= window, gcs[prev], 0)
        return pd.DataFrame({id_col: g[id_col].to_numpy(), "roll_sum": roll})

    return keyed_runs(ds, key_col, [ts_col, id_col], reduce_bucket, n_buckets)


def debounce_events(ds, key_cols: list[str], ts_col: str, id_col: str,
                    gap_s: int, n_buckets: int | None = None):
    """Log-dedup / debounce: keep a row iff it is the first of its key
    or follows the PREVIOUS RAW row of the same key by more than
    ``gap_s`` (lag semantics — each row compares to its immediate
    predecessor under ORDER BY (ts, id), exactly SQL's
    ``lag(ts) OVER (PARTITION BY keys ORDER BY ts, id)``).

    -> Dataset(id) of kept rows.  Scale shape: ONE key-hash bucket
    shuffle (composite keys hashed together), per-bucket vectorized
    sort + diff — the session_counts machinery pointed at retention
    filtering instead of counting."""
    from gliner_cpp_ray.stages.joins import keyed_runs

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        keep = first.copy()
        keep[1:] |= ts[1:] - ts[:-1] > gap_s * US
        return pd.DataFrame({id_col: g[id_col].to_numpy()[keep]})

    return keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket, n_buckets)


def lag_delta_per_key(ds, key_cols: list[str], ts_col: str, id_col: str,
                      val_col: str, out_col: str = "delta",
                      n_buckets: int | None = None):
    """Per-key first difference: for each row, ``val − lag(val)`` under
    ``PARTITION BY keys ORDER BY (ts, id)``; rows with no predecessor
    (each key's first) are omitted, keeping the output dense int64.

    -> Dataset(id, out_col).  Same scale shape as ``debounce_events``:
    ONE composite-key-hash bucket shuffle, per-bucket vectorized
    sort + shifted subtraction."""
    from gliner_cpp_ray.stages.joins import keyed_runs

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        v = g[val_col].to_numpy().astype(np.int64)
        delta = np.empty(len(g), np.int64)
        delta[1:] = v[1:] - v[:-1]
        return pd.DataFrame(
            {id_col: g[id_col].to_numpy()[~first], out_col: delta[~first]}
        )

    return keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket, n_buckets)


def transition_counts(ds, key_cols: list[str], ts_col: str, id_col: str,
                      state_col: str, n_buckets: int | None = None):
    """Markov transition counts: (state, next_state, n) over consecutive
    row pairs per key under ``ORDER BY (ts, id)`` — SQL's
    ``lead(state) OVER (PARTITION BY keys ORDER BY ts, id)``.

    Scale shape: ONE key-hash bucket shuffle, per-bucket vectorized
    sort + shift, then a per-bucket pandas groupby emits (state, next,
    partial n) — state-pair cardinality bounded — merged by one tiny
    grouped Sum."""
    from ray.data.aggregate import Sum
    from gliner_cpp_ray.stages.joins import keyed_runs

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "state": pd.Series(dtype=object),
                "next_state": pd.Series(dtype=object),
                "n": pd.Series(dtype=np.int64),
            }
        )
        same = ~first[1:]
        if not same.any():
            return empty
        st = g[state_col].to_numpy()
        pairs = pd.DataFrame(
            {"state": st[:-1][same], "next_state": st[1:][same]}
        )
        out = (
            pairs.groupby(["state", "next_state"], sort=False)
            .size()
            .rename("n")
            .astype(np.int64)
            .reset_index()
        )
        return out

    partials = keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket,
                          n_buckets)
    # final merge: state-pair-cardinality-bounded grouped Sum
    return partials.groupby(["state", "next_state"]).aggregate(
        Sum("n", alias_name="n")
    )


def sliding_distinct(ds, ts_col: str, id_col: str, step_s: int = 3600,
                     span_steps: int = 3):
    """Sliding COUNT(DISTINCT id): for each step bucket b with any
    activity in its window, the distinct ids seen in buckets
    (b − span, b].  Unlike ``sliding_counts``, distinct counts are NOT
    additive, so the window cannot roll over per-bucket totals —
    instead the DISTINCT (bucket, id) pair set (the minimal sufficient
    statistic) is built by one bucketed grouped aggregate, each pair is
    replicated map-side to the ≤ span windows it serves, and one more
    bucketed pass takes nunique per window.  Movement: 2 exchanges of
    pair-sized data (≤ span × distinct pairs), never raw events twice,
    and no dense bucket range anywhere.

    -> Dataset(bucket, n_users)."""
    from gliner_cpp_ray.stages.joins import bucketed_group_agg

    keyed = ds.map_batches(
        add_time_bucket, fn_kwargs={"ts_col": ts_col, "size_s": step_s},
        batch_format="pyarrow",
    )
    pairs = (
        bucketed_group_agg(keyed, ["bucket", id_col], "count", out_col="__n")
        .select_columns(["bucket", id_col])
        .materialize()  # read twice below (max + replicate); pair-bounded
    )
    max_b = pairs.max("bucket")

    def replicate(t: pa.Table) -> pa.Table:
        b = t.column("bucket").to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        win = (
            b[:, None] + np.arange(span_steps, dtype=np.int64)[None, :]
        ).ravel()
        rep = np.repeat(ids, span_steps)
        keep = win <= max_b  # window domain ends at the last active bucket
        return pa.table(
            {"bucket": pa.array(win[keep]), id_col: pa.array(rep[keep])}
        )

    repl = pairs.map_batches(replicate, batch_format="pyarrow")
    return bucketed_group_agg(
        repl, "bucket", "nunique", val_col=id_col, out_col="n_users"
    )


def time_decayed_sum(ds, key_col: str, ts_col: str, val_col: str,
                     halflife_us: int, ref_ts_us: int,
                     out_col: str = "decayed_micro"):
    """Per-key exponentially time-decayed value sum — the recency-
    weighted engagement / freshness score used to rank users, hosts or
    documents by *recent* activity without a cutoff cliff.

    Exact-integer semantics (bit-reproducible by any engine):

        decayed(key) = Σ_events  value >> min(62, age // halflife)

    i.e. each event's integer value halves once per elapsed half-life
    (``age = ref_ts_us - ts``, floor-divided).  The shift form makes
    the decay order-independent and int64-exact, so the sum is a plain
    associative grouped aggregate: per-batch map computes each event's
    decayed contribution vectorized, a map-side combiner collapses
    same-key rows, and ONE key-hash exchange folds the partials.
    Movement: one grouped-sum exchange of key-bounded partials — the
    same shape (and cost) as an ordinary per-key sum at any scale.

    ``val_col`` must be non-negative int64 (enforced): numpy's ``>>``
    floors while SQL integer division truncates, so negative values
    would silently diverge between engines.

    ``ref_ts_us`` is the decay anchor (normally ``max(ts)`` — one
    column-pruned scalar pass by the caller, never recomputed per
    batch).  Events after the anchor clamp to age 0.

    -> Dataset(key_col, out_col).
    """
    from gliner_cpp_ray.stages.joins import bucketed_group_agg

    if halflife_us <= 0:
        raise ValueError("halflife_us must be positive")

    def decay(t: pa.Table) -> pa.Table:
        v = t.column(val_col).to_numpy(zero_copy_only=False)
        if v.min(initial=0) < 0:
            raise ValueError(f"{val_col} must be non-negative (see doc)")
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        age = np.maximum(ref_ts_us - ts, 0)
        shift = np.minimum(age // halflife_us, 62)
        return pa.table(
            {
                key_col: t.column(key_col),
                out_col: pa.array(v >> shift, pa.int64()),
            }
        )

    return bucketed_group_agg(
        ds.map_batches(decay, batch_format="pyarrow"),
        key_col, "sum", val_col=out_col, out_col=out_col,
    )


def seq_numbers_per_key(ds, key_cols: list[str], ts_col: str, id_col: str,
                        out_col: str = "seq", n_buckets: int | None = None):
    """Per-key 1-based sequence numbers: ``row_number() OVER (PARTITION
    BY keys ORDER BY (ts, id))`` — the ordinal-position primitive under
    sessionization, n-th-touch attribution and per-entity timeline
    features.

    -> Dataset(id, out_col).  Same scale shape as ``lag_delta_per_key``:
    ONE composite-key-hash bucket shuffle co-locates each key, then a
    per-bucket vectorized sort + run-relative cumcount (no per-key
    pandas groups — one diff pass finds key starts, one subtract turns
    global positions into within-key ordinals)."""
    from gliner_cpp_ray.stages.joins import keyed_runs, run_starts

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        seq = np.arange(len(g), dtype=np.int64) - run_starts(first) + 1
        return pd.DataFrame({id_col: g[id_col].to_numpy(), out_col: seq})

    return keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket, n_buckets)


def session_ids_per_key(ds, key_cols: list[str], ts_col: str, id_col: str,
                        gap_us: int, out_col: str = "session_seq",
                        n_buckets: int | None = None):
    """Per-event SESSION ASSIGNMENT: each row's 1-based session ordinal
    within its key, where a new session starts at the key's first event
    or after an inter-event gap > ``gap_us`` (ties ordered by id).
    ``session_counts`` reports how many sessions a key had; this stage
    labels every event with WHICH session it belongs to — the
    prerequisite for per-session aggregates and session transcripts.

    ``ts_col`` must be integer micro-epoch (cast timestamps first).

    -> Dataset(id, out_col).  One composite-key-hash shuffle; the
    per-bucket reduce is sort + diff + run-relative cumsum — no per-key
    frames.
    """
    from gliner_cpp_ray.stages.joins import keyed_runs, run_starts

    if gap_us < 0:
        raise ValueError("gap_us must be >= 0")

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        if g[ts_col].dtype.kind not in "iu":
            raise TypeError(
                f"session_ids_per_key needs an integer {ts_col!r} column "
                "(cast timestamps to micro-epoch first)"
            )
        ts = g[ts_col].to_numpy().astype(np.int64)
        new = first.copy()
        new[1:] |= (ts[1:] - ts[:-1]) > gap_us
        cs = np.cumsum(new.astype(np.int64))
        seq = cs - cs[run_starts(first)] + 1
        return pd.DataFrame({id_col: g[id_col].to_numpy(), out_col: seq})

    return keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket, n_buckets)


def running_sum_per_key(ds, key_cols: list[str], ts_col: str, id_col: str,
                        val_col: str, out_col: str = "run_total",
                        n_buckets: int | None = None):
    """Per-key running total: ``sum(val) OVER (PARTITION BY keys ORDER
    BY (ts, id) ROWS UNBOUNDED PRECEDING)`` — the cumulative-feature
    primitive (lifetime spend to date, inventory level, balance).

    -> Dataset(id, out_col).  ONE composite-key-hash bucket shuffle +
    per-bucket vectorized sort, then a single global cumsum rebased at
    each key run's start (the ``lag_delta`` run-start trick) — int64
    exact, no per-key frames."""
    from gliner_cpp_ray.stages.joins import keyed_runs, run_starts

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        v = g[val_col].to_numpy().astype(np.int64)
        rs = run_starts(first)
        cs = np.cumsum(v)
        out = cs - cs[rs] + v[rs]
        return pd.DataFrame({id_col: g[id_col].to_numpy(), out_col: out})

    return keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket, n_buckets)


def session_stats_per_key(ds, key_cols: list[str], ts_col: str, id_col: str,
                          val_col: str, gap_us: int,
                          n_buckets: int | None = None):
    """Per-SESSION aggregates: one output row per (key, session) with
    the session's ordinal, event count, value sum and start/end time —
    the rollup ``session_ids_per_key`` labels events for, computed in
    the SAME single exchange (no label-then-join second shuffle).

    ``ts_col`` must be integer micro-epoch.  -> Dataset(*key_cols,
    session_seq, n_events, sum_val, start_us, end_us).  Output volume
    is one row per session, bounded by event count."""
    from gliner_cpp_ray.stages.joins import keyed_runs, run_starts

    if gap_us < 0:
        raise ValueError("gap_us must be >= 0")

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        if g[ts_col].dtype.kind not in "iu":
            raise TypeError(
                f"session_stats_per_key needs an integer {ts_col!r} column"
            )
        ts = g[ts_col].to_numpy().astype(np.int64)
        new = first.copy()
        new[1:] |= (ts[1:] - ts[:-1]) > gap_us
        sid = np.cumsum(new.astype(np.int64))  # bucket-global session id
        seq = sid - sid[run_starts(first)] + 1  # per-key session ordinal
        d = g.assign(_sid=sid, _seq=seq)
        agg = d.groupby("_sid", sort=True).agg(
            **{k: (k, "first") for k in key_cols},
            session_seq=("_seq", "first"),
            n_events=(ts_col, "size"),
            sum_val=(val_col, "sum"),
            start_us=(ts_col, "min"),
            end_us=(ts_col, "max"),
        ).reset_index(drop=True)
        for c in ("session_seq", "n_events", "sum_val", "start_us", "end_us"):
            agg[c] = agg[c].astype(np.int64)
        return agg

    return keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket, n_buckets)


def interarrival_per_key(ds, key_col: str, ts_col: str, id_col: str,
                         n_buckets: int | None = None):
    """Per-key inter-event gap profile: n_gaps, min/max gap and the
    truncated-quotient mean gap (microseconds) between CONSECUTIVE
    events ordered by (ts, id) — the burstiness / cadence feature
    (bot detection, session design, retention modeling).

    -> Dataset(key, n_gaps, min_gap_us, max_gap_us, mean_gap_us).
    ONE key-hash bucket shuffle; per-bucket vectorized sort + diff with
    key-run boundaries masking cross-key diffs (no per-key loop);
    keys with a single event have no gaps and are absent.  All int64;
    mean = sum // n matches DuckDB ``//`` (gaps are non-negative)."""
    from gliner_cpp_ray.stages.joins import keyed_runs

    out_cols = [key_col, "n_gaps", "min_gap_us", "max_gap_us", "mean_gap_us"]

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        same = ~first[1:]
        gk, gv = g[key_col].to_numpy()[1:][same], (ts[1:] - ts[:-1])[same]
        if not len(gv):
            return pd.DataFrame({c: np.zeros(0, np.int64) for c in out_cols})
        df = pd.DataFrame({key_col: gk, "g": gv})
        grp = df.groupby(key_col, sort=False)["g"]
        out = pd.DataFrame(
            {
                "n_gaps": grp.size().astype(np.int64),
                "min_gap_us": grp.min().astype(np.int64),
                "max_gap_us": grp.max().astype(np.int64),
                "s": grp.sum().astype(np.int64),
            }
        ).reset_index()
        out["mean_gap_us"] = (
            out["s"].to_numpy() // out["n_gaps"].to_numpy()
        ).astype(np.int64)
        return out[out_cols]

    return keyed_runs(ds, key_col, [ts_col, id_col], reduce_bucket, n_buckets)


def dwell_by_attr(ds, key_col: str, ts_col: str, id_col: str,
                  attr_col: str, n_buckets: int | None = None):
    """Dwell-time attribution: the gap from each event to its key's
    NEXT event (ordered by ts, id) is attributed to the EARLIER event's
    ``attr_col`` (screen/event type) — the "time spent on X" rollup
    product analytics runs.  -> Dataset(attr, n_dwells, total_dwell_us,
    mean_dwell_us), mean the truncated quotient.

    ONE key-hash exchange; per-bucket vectorized sort + lead-diff with
    key-run masking, then per-bucket PARTIAL (attr, n, total) rows so
    the final grouped sum moves attrs × buckets rows, never events."""
    from gliner_cpp_ray.stages.joins import bucketed_group_agg, keyed_runs

    def partial(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        gap = ts[1:] - ts[:-1]
        same = ~first[1:]
        attr = g[attr_col].to_numpy()[:-1][same]  # earlier event's attr
        if not len(attr):
            return pd.DataFrame(
                {attr_col: np.zeros(0, object),
                 "n": np.zeros(0, np.int64), "s": np.zeros(0, np.int64)}
            )
        d = pd.DataFrame({attr_col: attr, "g": gap[same]})
        grp = d.groupby(attr_col, sort=False)["g"]
        return pd.DataFrame(
            {"n": grp.size().astype(np.int64), "s": grp.sum().astype(np.int64)}
        ).reset_index()

    partials = keyed_runs(ds, key_col, [ts_col, id_col], partial, n_buckets)
    agg = bucketed_group_agg(
        partials, attr_col,
        specs=[("sum", "n", "n_dwells"), ("sum", "s", "total_dwell_us")],
        n_buckets=8,
    )
    return agg.map_batches(
        lambda t: t.append_column(
            "mean_dwell_us",
            pc.divide(t.column("total_dwell_us"), t.column("n_dwells")),
        ),
        batch_format="pyarrow",
    )


def trailing_range_sum(ds, key_col: str, ts_col: str, val_col: str,
                       id_col: str, range_us: int,
                       n_buckets: int | None = None):
    """Per-key time-RANGE window: for every row, the sum of ``val_col``
    over its key's rows whose timestamp lies in
    ``[ts - range_us, ts]`` — SQL's ``RANGE BETWEEN range_us PRECEDING
    AND CURRENT ROW`` frame, INCLUDING peers (rows sharing the current
    timestamp), which a ROWS frame (``rolling_per_key``) cannot
    express.

    -> Dataset(id, range_sum) — per-ROW output, hash-checkable against
    ``sum(v) OVER (PARTITION BY key ORDER BY ts_us RANGE BETWEEN
    range_us PRECEDING AND CURRENT ROW)``.

    Scale shape: ONE key-hash bucket shuffle; the per-bucket reduce is
    a single sort + TWO vectorized searchsorted passes over a
    per-key-rebased composite axis (key_idx·BIG + Δts, BIG sized so a
    ``-range_us`` probe can never cross into the previous key's block)
    + an int64 cumsum difference — no per-key Python loop, exact for
    the full int64 range."""
    from gliner_cpp_ray.stages.joins import keyed_runs, run_starts

    range_us = int(range_us)

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        ts = g[ts_col].to_numpy(dtype=np.int64)
        dt = ts - ts[run_starts(first)]  # a run's first ts is its min
        key_idx = np.cumsum(first, dtype=np.int64) - 1
        big = int(dt.max()) + range_us + 1
        # headroom check: key blocks must not overflow the composite axis
        assert big > 0 and key_idx.max() < (2**62) // big, \
            "trailing_range_sum: composite axis overflow (widen buckets)"
        axis = key_idx * big + dt
        lo = np.searchsorted(axis, axis - range_us, side="left")
        hi = np.searchsorted(axis, axis, side="right")
        cs = np.concatenate(
            [np.zeros(1, np.int64),
             np.cumsum(g[val_col].to_numpy(dtype=np.int64))]
        )
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                "range_sum": (cs[hi] - cs[lo]).astype(np.int64),
            }
        )

    return keyed_runs(ds, key_col, [ts_col, id_col], reduce_bucket, n_buckets)


def watermark_admitted_counts(ds, ts_col: str = "ts", id_col: str = "event_id",
                              bucket_us: int = 3_600 * US,
                              lateness_us: int = 600 * US,
                              n_buckets: int | None = None):
    """Streaming watermark-admission replay over the batch log: an
    event is ADMITTED iff, at the moment it arrives (ingestion order =
    ``id_col``), the watermark — the running event-time max over all
    PRIOR arrivals — has not yet passed its tumbling window's close plus
    the allowed lateness (``window_end + lateness > watermark``; the
    first arrival is always admitted).  Output: one row per window
    bucket with admitted and dropped counts — exactly what a streaming
    engine with ``allowed_lateness`` would have emitted, computed
    deterministically over the log.  The companion to the
    ``events_late_arrivals`` audit: that one SIZES the watermark delay,
    this one REPLAYS a chosen delay's effect.

    Scale shape (the prefix-max analog of ``packing.global_order_rank``'s
    two-level scan): ingestion ids range-partition into order-preserving
    buckets, each bucket reduces to ONE (bucket, max_ts) row, the driver
    turns those into per-bucket incoming watermarks via an exclusive
    running max (O(buckets), never row data), and a second vectorized
    pass finishes each bucket with a local ``maximum.accumulate``.  The
    final per-window rollup moves (windows × tasks) count rows."""
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import bucketed_group_agg
    from gliner_cpp_ray.stages.sizing import cluster_cpus

    if n_buckets is None:
        n_buckets = max(8, 10 * cluster_cpus())

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t.column(id_col).cast(pa.int64()),
                "__ts_us": t.column(ts_col).cast(pa.int64()),
            }
        )

    empty = pa.table(
        {
            "bucket": pa.array([], pa.int64()),
            "n_admitted": pa.array([], pa.int64()),
            "n_dropped": pa.array([], pa.int64()),
        }
    )
    # materialize: consumed three times (id bounds, per-bucket maxes,
    # finish); the projection is two int64 columns, spillable
    data = ds.map_batches(proj, batch_format="pyarrow").materialize()
    lo, hi = data.min(id_col), data.max(id_col)
    if lo is None:
        return rd.from_arrow(empty)
    span = max(1, (int(hi) - int(lo) + n_buckets) // n_buckets)

    def add_rb(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return t.append_column(
            "__rb", pa.array((ids - int(lo)) // span, pa.int64())
        )

    bucketed = data.map_batches(add_rb, batch_format="pyarrow")

    from ray.data.aggregate import Max

    maxes = (
        bucketed.groupby("__rb")
        .aggregate(Max("__ts_us", alias_name="mx"))
        .to_pandas()  # ONE row per ingestion-range bucket
        .sort_values("__rb")
    )
    mx = maxes["mx"].to_numpy(np.int64)
    # exclusive running max = the watermark ENTERING each range bucket
    incoming = np.concatenate(
        [[np.iinfo(np.int64).min], np.maximum.accumulate(mx)[:-1]]
    )
    wm_in = dict(zip(maxes["__rb"].astype(np.int64), incoming))

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="stable")
        ts = g["__ts_us"].to_numpy(np.int64)
        wm = np.empty(len(ts), np.int64)
        wm[0] = wm_in[int(g["__rb"].iloc[0])]
        if len(ts) > 1:
            wm[1:] = np.maximum.accumulate(ts)[:-1]
            np.maximum(wm[1:], wm[0], out=wm[1:])
        bucket = ts // bucket_us
        adm = (bucket + 1) * bucket_us + lateness_us > wm
        out = pd.DataFrame({"bucket": bucket, "adm": adm.astype(np.int64)})
        grp = out.groupby("bucket", sort=False)["adm"]
        sums = grp.sum()
        part = pd.DataFrame(
            {"n_admitted": sums, "n_dropped": grp.size() - sums}
        ).reset_index()
        return part.astype(np.int64)

    partials = bucketed.groupby("__rb").map_groups(
        finish, batch_format="pandas"
    )
    return bucketed_group_agg(
        partials, "bucket",
        specs=[("sum", "n_admitted", "n_admitted"),
               ("sum", "n_dropped", "n_dropped")],
        n_buckets=8,
    )


def sequence_ngram_counts(ds, key_cols: list[str], ts_col: str, id_col: str,
                          state_col: str, n: int = 3,
                          n_buckets: int | None = None):
    """Timeline n-gram counts: (s_0, ..., s_{n-1}, n) over every run of
    ``n`` CONSECUTIVE rows of the same key under ``ORDER BY (ts, id)``
    — the behavioral-sequence feature above ``transition_counts``
    (its n=2 generalization; SQL expresses it as chained ``lead()``
    windows).

    Scale shape: identical to ``transition_counts`` — ONE key-hash
    bucket shuffle, per-bucket vectorized sort + n-1 shifted masks, a
    per-bucket groupby over the (|states|^n)-bounded combination table,
    and one tiny grouped Sum merge."""
    from ray.data.aggregate import Sum
    from gliner_cpp_ray.stages.joins import keyed_runs

    out_cols = [f"s{i}" for i in range(n)]

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        empty = pd.DataFrame(
            {**{c: pd.Series(dtype=object) for c in out_cols},
             "n": pd.Series(dtype=np.int64)}
        )
        if len(g) < n:
            return empty
        m = len(g) - (n - 1)
        # the n rows from j share a key iff no run starts after row j
        run = np.cumsum(first)
        same = run[n - 1:] == run[:m]
        if not same.any():
            return empty
        st = g[state_col].to_numpy()
        grams = pd.DataFrame(
            {c: st[i:m + i][same] for i, c in enumerate(out_cols)}
        )
        return (
            grams.groupby(out_cols, sort=False)
            .size()
            .rename("n")
            .astype(np.int64)
            .reset_index()
        )

    partials = keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket,
                          n_buckets)
    return partials.groupby(out_cols).aggregate(Sum("n", alias_name="n"))


def session_item_pairs(ds, key_cols: list[str], ts_col: str, id_col: str,
                       item_col: str, gap_us: int,
                       n_buckets: int | None = None):
    """Within-session co-occurrence: for every unordered pair of
    ``item_col`` values, the number of SESSIONS (gap-split per key)
    containing both — 'what do users do together in one sitting', the
    session-scoped analog of the market-basket pair counts.

    Scale shape: ONE composite-key-hash exchange co-locates each key;
    the per-bucket reduce labels sessions (vectorized diff + cumsum),
    dedups to distinct (session, item), and pair-expands session by
    session via a self-merge — pair volume Σ k_session² with k bounded
    by the item-domain size, never corpus-scaled.  Partials merge under
    one |items|²-bounded grouped Sum."""
    from ray.data.aggregate import Sum
    from gliner_cpp_ray.stages.joins import keyed_runs

    def reduce_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64) \
            if g[ts_col].dtype.kind == "M" else g[ts_col].to_numpy(np.int64)
        new = first.copy()
        new[1:] |= np.diff(ts) > gap_us
        sess = np.cumsum(new.astype(np.int64))  # bucket-locally unique
        d = pd.DataFrame(
            {"sess": sess, "item": g[item_col].to_numpy()}
        ).drop_duplicates(["sess", "item"])
        m = d.merge(d, on="sess", suffixes=("_a", "_b"))
        m = m[m["item_a"] < m["item_b"]]
        if not len(m):
            return pd.DataFrame(
                {
                    "item_a": pd.Series(dtype=object),
                    "item_b": pd.Series(dtype=object),
                    "n": pd.Series(dtype=np.int64),
                }
            )
        out = (
            m.groupby(["item_a", "item_b"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    partials = keyed_runs(ds, key_cols, [ts_col, id_col], reduce_bucket,
                          n_buckets)
    return partials.groupby(["item_a", "item_b"]).aggregate(
        Sum("n", alias_name="n_sessions")
    )
