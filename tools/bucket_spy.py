"""Print the bucket count of every exchange each registry query builds.

    PYTHONPATH=. python tools/bucket_spy.py [--sf-dir DIR] [--cpus N] NAME...

Each named query runs on the sf directory with ``sizing.cluster_cpus``
reporting N (Ray itself starts with at most N CPUs, fewer if the host
has fewer), and is executed to the end.  A profile hook on the driver
records, in call order, the bucket count every ``keyed_exchange`` and
``keyed_cogroup`` hands ``joins.add_group_bucket``, the block count
``joins._tagged_union`` coalesces to, and every range-bucket count; and
it counts the calls that sized an exchange with ``default_buckets()``
(2 × CPUs, whatever the input's size).  One line per query:

    pagerank 5.1s default=0 x8 u8 j8 x8 ...

``xN`` is a single-input exchange, ``jN`` a two-input one, ``uN`` the
coalesce of its union and ``rN`` a range-bucket scan.  Queries share
the session's cached tables (``pipelines/queries.py:_cached``), so the
first query that builds one pays for it: list ``page_links`` first to
time the link-graph queries on a warm cache.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

_JOINS = "gliner_cpp_ray.stages.joins"
_SIZING = "gliner_cpp_ray.stages.sizing"
# (module, function) -> (tag, local holding the count)
_RECORDED = {
    (_JOINS, "keyed_exchange"): ("x", "n_buckets"),
    (_JOINS, "keyed_cogroup"): ("j", "n_buckets"),
    (_JOINS, "_tagged_union"): ("u", "n_parts"),
}


class BucketLog:
    """What one spied stretch of driver code decided: ``counts`` holds
    ``(tag, count)`` in call order, ``defaults`` the number of
    ``default_buckets()`` calls made without an explicit count (other
    than the cap inside ``rows_scaled_buckets``)."""

    def __init__(self):
        self.counts: list[tuple[str, int]] = []
        self.defaults = 0

    def __call__(self, frame, event, arg):
        if event not in ("call", "return"):
            return
        code, module = frame.f_code, frame.f_globals.get("__name__")
        if module == _SIZING:
            if code.co_name == "range_buckets" and event == "return" and arg:
                self.counts.append(("r", arg))
            elif (code.co_name == "default_buckets" and event == "call"
                  and frame.f_locals.get("n_buckets") is None
                  and frame.f_back.f_code.co_name != "rows_scaled_buckets"):
                self.defaults += 1
            return
        rec = _RECORDED.get((module, code.co_name))
        if rec and event == "return":
            tag, local = rec
            n = frame.f_locals.get(local)
            if n is not None:
                # _tagged_union coalesces to at least 8 blocks
                self.counts.append((tag, max(n, 8) if tag == "u" else n))

    def line(self) -> str:
        return " ".join(f"{tag}{n}" for tag, n in self.counts)


@contextmanager
def bucket_spy():
    """Record the bucket counts the driver decides inside the block."""
    log = BucketLog()
    prev = sys.getprofile()
    sys.setprofile(log)
    try:
        yield log
    finally:
        sys.setprofile(prev)


@contextmanager
def cluster_cpus(n: int):
    """``sizing.cluster_cpus`` reports ``n`` inside the block."""
    from gliner_cpp_ray.stages import sizing

    real = sizing.cluster_cpus
    sizing.cluster_cpus = lambda: n
    try:
        yield
    finally:
        sizing.cluster_cpus = real


def spy_queries(names, sf_dir: str, cpus: int):
    """Run each registry query to the end with the sizer seeing
    ``cpus`` CPUs (Ray must be up); yields ``(name, seconds, BucketLog)``."""
    import __ray_entry__ as entrymod

    queries = entrymod.queries()
    with cluster_cpus(cpus):
        for name in names:
            t0 = time.perf_counter()
            with bucket_spy() as log:
                result = queries[name](sf_dir)
                if hasattr(result, "materialize"):  # a Ray Dataset
                    result.materialize()
            yield name, time.perf_counter() - t0, log


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="+", help="registry queries to run, in order")
    ap.add_argument("--sf-dir", help="default: the sf0.01 sibling of the "
                    "oracle suite's test data, as tools/verify_driver.py")
    ap.add_argument("--cpus", type=int, default=4,
                    help="CPU count the sizer sees")
    args = ap.parse_args(argv)
    if args.sf_dir is None:
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        from test_queries_oracle import SF_DIR

        args.sf_dir = os.path.join(os.path.dirname(SF_DIR), "sf0.01")

    import ray

    import __ray_entry__ as entrymod

    unknown = sorted(set(args.names) - set(entrymod.queries()))
    if unknown:
        ap.error(f"unknown queries {unknown}")
    ray.init(address="local", include_dashboard=False, logging_level="ERROR",
             num_cpus=min(args.cpus, len(os.sched_getaffinity(0))))
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    for name, seconds, log in spy_queries(args.names, args.sf_dir, args.cpus):
        print(f"{name} {seconds:.2f}s default={log.defaults} {log.line()}",
              flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
