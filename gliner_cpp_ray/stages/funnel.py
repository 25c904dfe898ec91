"""Funnel and cohort-retention analytics over an event log.

Two product-analytics staples the reference-scale training-data stack
needs next to the window shapes in ``stages/windows.py``:

* ``funnel_within`` — ordered multi-step conversion: per user, the
  earliest completion time of each step, where step *i* must occur at
  or after step *i-1* and every step must land within ``window_s`` of
  step 1.  Output is per-user (one row per user who completed step 1),
  so the oracle hash-checks every user's timestamps, not just counts.
* ``weekly_retention`` — classic cohort grid: users bucketed by the
  week of their first event; for each (cohort_week, week_offset), the
  number of distinct users active in that week.

Scale shape (both): event rows are filtered map-side to the relevant
event types / projected to (user, week) and hash-bucketed by user — ONE
all-to-all, cluster-sized bucket count — so each user's full history is
co-located; the per-bucket reduce is vectorized pandas (sort + groupby
min / cumulative masks), never per-user Python.  Retention's second
aggregate moves only per-bucket (cohort_week, week_offset, count)
partials: users live in exactly one bucket, so partial counts of
distinct users are disjoint and a plain sum finishes the grid.

All outputs are int64 (epoch microseconds, -1 sentinel for unreached
steps) for exact, dtype-stable oracle comparison.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

US = 1_000_000
WEEK_US = 7 * 24 * 3600 * US


def funnel_step_times(g: pd.DataFrame, steps: list[str], window_s: int,
                      user_col: str = "user_id", ts_col: str = "ts",
                      type_col: str = "event_type") -> pd.DataFrame:
    """Reference semantics over ONE co-located group (also the unit-test
    oracle): t1 = min ts of ``steps[0]`` per user; t_i = min ts of
    ``steps[i]`` with ts >= t_{i-1} and ts <= t1 + window.  Vectorized:
    one groupby-min per step (len(steps) passes, each C-level), with
    the per-user previous-step time aligned via a map — no per-user
    Python loop."""
    k = len(steps)
    ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
    users = g[user_col].to_numpy()
    types = g[type_col].to_numpy()

    first = (
        pd.Series(ts[types == steps[0]], index=users[types == steps[0]])
        .groupby(level=0)
        .min()
    )
    if first.empty:
        cols = {user_col: np.zeros(0, np.int64),
                "stage_reached": np.zeros(0, np.int64)}
        for i in range(k):
            cols[f"t{i + 1}_us"] = np.zeros(0, np.int64)
        return pd.DataFrame(cols)

    deadline = first + window_s * US
    prev = first
    reached = [first]
    for step in steps[1:]:
        m = types == step
        su, st = users[m], ts[m]
        # the NaN-carrying align promotes to float64; epoch-us values
        # stay < 2^53 through year 2255, so the comparisons are exact
        lo = pd.Series(su).map(prev).to_numpy()
        hi = pd.Series(su).map(deadline).to_numpy()
        ok = ~np.isnan(lo) & (st >= lo) & (st <= hi)
        nxt = (
            pd.Series(st[ok], index=su[ok]).groupby(level=0).min()
            if ok.any()
            else pd.Series(np.zeros(0, np.int64))
        )
        reached.append(nxt)
        prev = nxt

    out = pd.DataFrame({user_col: first.index.to_numpy()})
    stage = np.ones(len(first), dtype=np.int64)
    out["t1_us"] = first.to_numpy()
    for i, r in enumerate(reached[1:], start=2):
        t = out[user_col].map(r)
        got = t.notna().to_numpy()
        stage += got.astype(np.int64) * (stage == i - 1)
        out[f"t{i}_us"] = np.where(
            got & (stage >= i), t.fillna(-1).to_numpy(), -1
        ).astype(np.int64)
    out.insert(1, "stage_reached", stage)
    return out


def funnel_within(ds, steps: list[str], window_s: int,
                  user_col: str = "user_id", ts_col: str = "ts",
                  type_col: str = "event_type",
                  n_buckets: int | None = None):
    """-> Dataset(user, stage_reached, t1_us..tk_us) — see module doc.

    Map-side: keep only rows whose type is a funnel step (shuffle
    carries the funnel-relevant fraction of the log, not the log);
    bucket by user hash; per-bucket vectorized reference pass."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from gliner_cpp_ray.stages.joins import keyed_exchange

    step_list = list(steps)

    def prep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column(type_col), pa.array(step_list)))

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return funnel_step_times(
            g, step_list, window_s, user_col, ts_col, type_col
        )

    return keyed_exchange(
        ds.map_batches(prep, batch_format="pyarrow"),
        user_col, reduce_bucket, n_buckets,
    )


def weekly_retention(ds, user_col: str = "user_id", ts_col: str = "ts",
                     n_buckets: int | None = None):
    """-> Dataset(cohort_week, week_offset, n_users) — see module doc.

    Map-side projection to per-batch-distinct (user, week) int rows
    (a user active 1000× in a week ships once per batch); per-bucket
    reduce computes each user's cohort (min week — global, because the
    bucket holds ALL of a user's rows) and emits disjoint partial
    counts; a tiny final groupby sums the grid."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from gliner_cpp_ray.stages.joins import keyed_exchange
    from ray.data.aggregate import Sum

    def prep(t: pa.Table) -> pa.Table:
        # normalize to µs first: a timestamp[ns] input (e.g. pandas
        # datetime64[ns]) would otherwise yield ns under the int cast
        us = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        week = pa.table(
            {
                user_col: t.column(user_col),
                "week": pc.divide(us, WEEK_US),  # int64 floor division
            }
        )
        # per-batch distinct: combiner before the shuffle
        return week.group_by([user_col, "week"]).aggregate([])

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([user_col, "week"])
        cohort = g.groupby(user_col)["week"].transform("min")
        out = (
            pd.DataFrame(
                {
                    "cohort_week": cohort.to_numpy(dtype=np.int64),
                    "week_offset": (g["week"] - cohort).to_numpy(
                        dtype=np.int64
                    ),
                }
            )
            .groupby(["cohort_week", "week_offset"], as_index=False)
            .size()
            .rename(columns={"size": "n_users_part"})
        )
        out["n_users_part"] = out["n_users_part"].astype(np.int64)
        return out

    grid = keyed_exchange(
        ds.map_batches(prep, batch_format="pyarrow"),
        user_col, reduce_bucket, n_buckets,
    )
    return (
        grid.groupby(["cohort_week", "week_offset"])
        .aggregate(Sum("n_users_part", alias_name="n_users"))
    )
