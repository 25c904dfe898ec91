"""Driver-equivalent correctness harness: Ray queries vs DuckDB oracles.

Replicates the driver's comparison (sort columns by name, sort rows,
exact value equality) locally at sf0.001 so oracle drift is caught
before the driver runs at sf0.01.
"""

import os

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod
from gliner_cpp_ray.pipelines.queries import (
    KG_SEED,
    _collapse_pattern_ws,
    oracle_sql_for_corpus,
    queries,
)
from gliner_cpp_ray.sources.pages import corpus_dir_for, n_pages_for_sf

SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _duck(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")
    return con.execute(sql).df()


def _as_df(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    try:
        import pyarrow as pa

        if isinstance(result, pa.Table):
            return result.to_pandas()
    except ImportError:
        pass
    return result.to_pandas()  # ray Dataset


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    """Sort columns by name, rows by value — but keep dtypes: the
    driver's compare hashes raw values, so an int64 12345 on the Ray
    side vs a float64 12345.0 from a DuckDB HUGEINT must FAIL here too
    (round-1 regression: the old harness normalized dtypes and missed
    three oracle-side HUGEINT artifacts the driver then flagged)."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _assert_hash_equivalent(name: str, got: pd.DataFrame, want: pd.DataFrame):
    for c in got.columns:
        gk, wk = got[c].dtype.kind, want[c].dtype.kind
        assert gk == wk, (
            f"{name}.{c}: dtype kind mismatch {got[c].dtype} vs {want[c].dtype}"
            " (the driver hashes raw values — int vs float is a hash fail)"
        )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


ORACLES = oracle_sql_for_corpus(corpus_dir_for(n_pages_for_sf(SF_DIR), KG_SEED))
WITH_ORACLE = sorted(set(queries()) & set(ORACLES))
ROWS_ONLY = sorted(set(queries()) - set(ORACLES))


def test_every_oracle_key_has_a_query():
    assert set(entrymod.oracle_sql()) <= set(entrymod.queries())


@pytest.mark.parametrize("name", WITH_ORACLE)
def test_query_matches_oracle(ray_session, name):
    got = _canon(_as_df(queries()[name](SF_DIR)))
    want = _canon(_duck(ORACLES[name]))
    assert list(got.columns) == list(want.columns), (
        f"{name}: column mismatch {list(got.columns)} vs {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: row count {len(got)} vs {len(want)}"
    _assert_hash_equivalent(name, got, want)


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(ray_session, name):
    df = _as_df(queries()[name](SF_DIR))
    assert len(df) >= 0 and len(df.columns) > 0


def test_entry_smoke(ray_session):
    df = entrymod.entry()
    assert len(df) > 0
    assert {"subj_canon", "pred", "obj_canon", "weight"} <= set(df.columns)


@pytest.mark.parametrize(
    "text",
    [
        " is the capital of ",
        "\tis\n\nthe\r\x0ccapital ",
        "a\x0bb",                 # vertical tab
        "a\u00a0b",               # no-break space
        "is\u2028the",            # line separator
        "\u3000of\u3000 \u3000",  # ideographic space
        " \x0b \u00a0 ",
        "",
    ],
)
def test_kg_pred_patterns_whitespace_matches_duckdb(text):
    # RE2's \s is ASCII-only: DuckDB collapses [\t\n\f\r ] and keeps
    # \x0b and non-ASCII whitespace as ordinary characters
    want = duckdb.execute(
        "SELECT trim(regexp_replace(?, '\\s+', ' ', 'g'), ' ')", [text]
    ).fetchone()[0]
    assert _collapse_pattern_ws(text) == want


def test_orders_snapshot_diff_compares_digests_exactly():
    """The 60-bit row digests must compare as integers: an outer merge
    with unmatched keys must not round them to float64 first."""
    import pyarrow as pa

    from gliner_cpp_ray.pipelines.queries import _snapshot_diff_classify

    base = 1 << 59  # base + 1 and base + 2 round to the same float64
    g = pd.DataFrame(
        {
            "key": [1, 2, 1, 3],
            "status": ["O", "F", "O", "P"],
            "h": [base + 1, base + 5, base + 2, base + 7],
            "side": [0, 0, 1, 1],
        }
    )
    got = _snapshot_diff_classify(g).sort_by("kind").to_pylist()
    assert got == [
        {"status": "P", "kind": "added", "n": 1},
        {"status": "O", "kind": "changed", "n": 1},
        {"status": "F", "kind": "removed", "n": 1},
    ]
    assert pa.types.is_int64(_snapshot_diff_classify(g).schema.field("n").type)


def test_order_priority_merge_revenue_reads_a_directory_table(ray_session, tmp_path):
    """``lineitem.parquet`` may be a directory of part files, as every
    other sf reader here allows."""
    import shutil

    import pyarrow.parquet as pq

    shutil.copy(os.path.join(SF_DIR, "orders.parquet"), tmp_path / "orders.parquet")
    lineitem = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"))
    parts = tmp_path / "lineitem.parquet"
    parts.mkdir()
    half = lineitem.num_rows // 2
    pq.write_table(lineitem.slice(0, half), parts / "part-0.parquet")
    pq.write_table(lineitem.slice(half), parts / "part-1.parquet")

    name = "order_priority_merge_revenue"
    got = _canon(_as_df(queries()[name](str(tmp_path))))
    want = _canon(_duck(ORACLES[name]))
    _assert_hash_equivalent(name, got, want)
