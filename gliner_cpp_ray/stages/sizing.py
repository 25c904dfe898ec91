"""Cluster-derived sizing for shuffle/reduce parallelism.

Fixed small constants (``n_buckets=16``, ``reduce_partitions=8``,
``concurrency=(1, 4)``) are correct at bench scale but become the
binding constraint at 100× data: each bucket group must fit one
worker's pandas merge, so bucket count has to GROW with the cluster.
Every bucketed operator therefore defaults its parallelism to
``None`` and derives it here from ``ray.cluster_resources()`` — the
same pattern the KG pipeline uses for NER read blocks
(pipelines/kg.py:206-210).  Explicit values still win, so tests and
skew-tuned callers can pin them.

Invariant documented in SCALE.md: with ``buckets ≈ 2×CPU`` each worker
merges ~2 bucket groups per wave and per-bucket volume shrinks
linearly as nodes are added — the per-bucket-fits-in-worker assumption
holds as long as data grows no faster than the cluster.
"""

from __future__ import annotations


def cluster_cpus(default: int = 8) -> int:
    """Total cluster CPUs (the driver's view); ``default`` when Ray is
    not initialised (pure-local unit tests)."""
    try:
        import ray

        if ray.is_initialized():
            return max(1, int(ray.cluster_resources().get("CPU", default)))
    except Exception:  # pragma: no cover - ray import failure
        pass
    import os

    return max(1, os.cpu_count() or default)


def default_buckets(n_buckets: int | None = None, *, per_cpu: int = 2,
                    floor: int = 8, cap: int = 4096) -> int:
    """Bucket count for a hash-partitioned operator: explicit value if
    given, else ``per_cpu × cluster CPUs`` (floor 8 so small test
    clusters still exercise multi-bucket paths, cap to bound per-group
    fixed costs)."""
    if n_buckets is not None:
        return int(n_buckets)
    return max(floor, min(cap, per_cpu * cluster_cpus()))


def default_concurrency(concurrency=None, *, floor: int = 4) -> tuple[int, int]:
    """Autoscaling actor-pool bounds for stateful map_batches stages:
    (1, max(floor, CPUs)) — the pool can grow to one actor per CPU and
    Ray's autoscaler keeps it small when the stage is not the
    bottleneck.

    Reach for an actor pool ONLY when per-actor setup is genuinely
    expensive (model load, index build).  Stages whose state builds in
    microseconds-to-milliseconds should pass a callable INSTANCE to
    ``map_batches`` instead: it runs as plain tasks on the warm worker
    pool (the serialized instance ships once per worker via the object
    store), where an actor pool pays 1-2 s of spin-up per query."""
    if concurrency is not None:
        return concurrency
    return (1, max(floor, cluster_cpus()))


def bytes_scaled_partitions(total_bytes: int, n: int | None = None, *,
                            per_partition_bytes: int = 64 << 20,
                            floor: int = 8, cap: int | None = None) -> int:
    """Partition count scaled to INPUT VOLUME and capped by cluster
    size: ``clamp(total_bytes / per_partition_bytes, floor, 2×CPUs)``.

    A pure cluster-derived count (``default_buckets``) is
    right when data grows with the cluster, but over-partitions small
    inputs — at bench scale every extra partition is ~0.1 s of fixed
    per-partition cost across a repartition+groupby pair for zero
    parallelism gain.  Scaling by observed input bytes gives the floor
    on toy corpora and grows linearly to the cluster cap at real
    volume; callers that know their input size (the KG pipeline lists
    its files) should prefer this form."""
    if n is not None:
        return int(n)
    if cap is None:
        cap = 2 * cluster_cpus()
    want = int(total_bytes // per_partition_bytes) + 1
    return max(floor, min(cap, want))
