"""Driver replica: run ``__ray_entry__``'s queries and compare each one
with its DuckDB oracle the way the grading driver does.

    PYTHONPATH=. python tools/verify_driver.py [--sf-dir DIR] [--cpus N] [NAME ...]

``entry()`` runs first (it must return rows); then every named query
(default: every query that has an oracle) runs on the sf directory and
is compared with the oracle SQL over that directory's tables: same
columns, same row count, same dtype kind per column and equal values
after sorting columns by name and rows by value.  The sort and compare
are the oracle test suite's own (``tests/test_queries_oracle.py``).
The sf directory defaults to the ``sf0.01`` sibling of the suite's
test data, the scale the driver compares at.  Prints one line per
query and exits non-zero if any query fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "tests")]

import duckdb  # noqa: E402

import __ray_entry__ as entrymod  # noqa: E402
import test_queries_oracle as oracle_suite  # noqa: E402
from gliner_cpp_ray.pipelines.queries import KG_SEED, oracle_sql_for_corpus  # noqa: E402
from gliner_cpp_ray.sources.pages import ensure_corpus, n_pages_for_sf  # noqa: E402

DEFAULT_SF_DIR = os.path.join(os.path.dirname(oracle_suite.SF_DIR), "sf0.01")


def duck(sf_dir: str, sql: str):
    con = duckdb.connect()
    for t in oracle_suite.TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")
    return con.execute(sql).df()


def check(name: str, fn, sql: str, sf_dir: str) -> None:
    got = oracle_suite._canon(oracle_suite._as_df(fn(sf_dir)))
    want = oracle_suite._canon(duck(sf_dir, sql))
    assert list(got.columns) == list(want.columns), (
        f"columns {list(got.columns)} vs {list(want.columns)}"
    )
    assert len(got) == len(want), f"row count {len(got)} vs {len(want)}"
    oracle_suite._assert_hash_equivalent(name, got, want)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="queries to check (default: all with an oracle)")
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    ap.add_argument("--cpus", type=int, default=4, help="Ray num_cpus")
    args = ap.parse_args(argv)

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # the KG oracles read the synthetic corpus; make sure it exists
    oracles = oracle_sql_for_corpus(
        ensure_corpus(n_pages_for_sf(args.sf_dir), KG_SEED)
    )
    queries = entrymod.queries()
    names = args.names or sorted(set(queries) & set(oracles))
    unknown = [n for n in names if n not in oracles]
    if unknown:
        ap.error(f"no oracle for {unknown}")

    t0 = time.perf_counter()
    n_rows = len(entrymod.entry())
    assert n_rows > 0, "entry() returned no rows"
    print(f"entry: {n_rows} rows, {time.perf_counter() - t0:.1f}s", flush=True)

    failed = []
    for name in names:
        t0 = time.perf_counter()
        try:
            check(name, queries[name], oracles[name], args.sf_dir)
            status = "ok"
        except Exception as exc:  # report every query, then fail
            failed.append(name)
            status = f"FAIL {type(exc).__name__}: {exc}".splitlines()[0][:300]
            traceback.print_exc(file=sys.stderr)
        print(f"{name}: {status} ({time.perf_counter() - t0:.1f}s)", flush=True)
    print(f"{len(names) - len(failed)}/{len(names)} match; failed: {failed}")
    ray.shutdown()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
