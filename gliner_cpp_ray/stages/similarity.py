"""Similarity search over an embedding column (``list<float>``).

* ``brute_force_topk`` — exact cosine top-k: the (small) query matrix is
  broadcast (``ray.put`` once / constructor arg), each batch computes a
  vectorized ``batch × queries`` matmul and emits per-batch top-k
  PARTIALS; a final tiny reduce merges them.  Scales linearly in corpus
  size with no shuffle.
* ``embedding_near_dup_pairs`` — exact all-pairs cosine over a broadcast
  matrix (the scale path for the verify step of embedding near-dup);
  fine while one side fits in worker memory.
* ``LshBucketer`` — random-hyperplane LSH codes: the approximate scale
  path; bucket by code, compare within buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa



def _normalize(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _resolve_broadcast(x):
    """Accept a plain array or a ``ray.put`` ObjectRef — constructor args
    arrive per actor, so large broadcast sides should be put once into
    the object store and fetched zero-copy here."""
    try:
        import ray

        if isinstance(x, ray.ObjectRef):
            return ray.get(x)
    except ImportError:  # pragma: no cover
        pass
    return x


def _embedding_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col)
    if arr.num_chunks == 1:
        flat = arr.chunk(0)
    else:
        flat = arr.combine_chunks()
    if hasattr(flat, "values"):  # list<float> layout (parquet tables)
        values = np.asarray(flat.values, dtype=np.float64)
        return values.reshape(len(batch), -1)
    # Ray ArrowTensorArray extension layout (from_pandas/ndarray cells)
    return np.asarray(
        flat.to_numpy(zero_copy_only=False), dtype=np.float64
    ).reshape(len(batch), -1)


class BruteForceTopK:
    """Per-batch partial top-k against a broadcast query matrix."""

    def __init__(self, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
                 id_col: str = "vec_id", col: str = "embedding",
                 exclude_self: bool = True):
        self.q = _normalize(_resolve_broadcast(queries))  # [Q, D]
        self.query_ids = np.asarray(_resolve_broadcast(query_ids))
        self.k = k
        self.id_col = id_col
        self.col = col
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        m = _normalize(_embedding_matrix(batch, self.col))  # [N, D]
        sims = m @ self.q.T  # [N, Q]
        out_q, out_v, out_s = [], [], []
        k = min(self.k + (1 if self.exclude_self else 0), len(ids))
        for qi in range(self.q.shape[0]):
            col = sims[:, qi]
            top = np.argpartition(-col, k - 1)[:k] if k < len(ids) else np.arange(len(ids))
            for j in top:
                if self.exclude_self and ids[j] == self.query_ids[qi]:
                    continue
                out_q.append(self.query_ids[qi])
                out_v.append(ids[j])
                out_s.append(col[j])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )


def reduce_topk(partials: pd.DataFrame, k: int = 10) -> pd.DataFrame:
    """Merge per-batch partials -> global top-k per query with
    deterministic tie-break (score desc, vec_id asc) and 1-based rank."""
    out = []
    for qid, g in partials.groupby("query_id", sort=True):
        g = g.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        out.append(g)
    res = pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        columns=["query_id", "vec_id", "score", "rank"]
    )
    return res[["query_id", "rank", "vec_id"]]


def brute_force_topk(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
                     **stage_kwargs) -> pd.DataFrame:
    # instance -> plain Ray tasks on the warm worker pool: the stage
    # state (query matrix, a few KB-MB) ships once per worker via the
    # object store; an actor pool paid 1-2 s spin-up per query wave
    partial = ds.map_batches(
        BruteForceTopK(queries=queries, query_ids=query_ids, k=k,
                       **stage_kwargs),
        batch_format="pyarrow",
    )
    return reduce_topk(partial.to_pandas(), k)


class NearDupScorer:
    """Per-batch exact cosine vs a broadcast reference matrix; emits
    pairs over threshold with a < b ordering."""

    def __init__(self, ref_ids: np.ndarray, ref_matrix: np.ndarray,
                 threshold: float = 0.95, id_col: str = "vec_id",
                 col: str = "embedding"):
        self.ref_ids = np.asarray(_resolve_broadcast(ref_ids))
        self.ref = _normalize(_resolve_broadcast(ref_matrix))
        self.threshold = threshold
        self.id_col = id_col
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        m = _normalize(_embedding_matrix(batch, self.col))
        sims = m @ self.ref.T  # [N, R]
        ii, jj = np.nonzero(sims > self.threshold)
        a, b, s = [], [], []
        for x, y in zip(ii, jj):
            ia, ib = int(ids[x]), int(self.ref_ids[y])
            if ia < ib:  # dedupe symmetric pairs + drop self
                a.append(ia)
                b.append(ib)
                s.append(float(sims[x, y]))
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "cosine": pa.array(s, pa.float64()),
            }
        )


def embedding_near_dup_clusters(ds, ref_ids: np.ndarray, ref_matrix: np.ndarray,
                                threshold: float = 0.95, id_col: str = "vec_id",
                                col: str = "embedding"):
    """Embedding near-dup CLUSTERS: exact cosine pairs over a broadcast
    reference matrix, then ``graph.connected_components`` on the
    (dup-density-bounded) pair list.  Returns a DataFrame (id_col,
    cluster_id) with cluster_id = min member id — the embedding analog
    of MinHash clustering."""
    from gliner_cpp_ray.stages.dedup import ClusterAssigner
    from gliner_cpp_ray.stages.graph import connected_components

    pairs = ds.map_batches(
        NearDupScorer(ref_ids=ref_ids, ref_matrix=ref_matrix,
                      threshold=threshold, id_col=id_col, col=col),
        batch_format="pyarrow",
    )
    comp = connected_components(pairs)
    assign = ClusterAssigner(
        comp.column("node").to_numpy(), comp.column("label").to_numpy(), id_col
    )
    ids = pa.table({id_col: pa.array(np.asarray(ref_ids, np.int64))})
    return assign(ids).to_pandas()


class LshBucketer:
    """Random-hyperplane LSH: adds an int64 ``lsh_code`` column."""

    def __init__(self, dim: int, bits: int = 16, seed: int = 23, col: str = "embedding"):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, bits))
        self.col = col

    def code_of(self, vectors: np.ndarray) -> np.ndarray:
        codes = (np.asarray(vectors, np.float64) @ self.planes > 0).astype(np.uint64)
        weights = np.uint64(1) << np.arange(codes.shape[1], dtype=np.uint64)
        return (codes * weights).sum(axis=1).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        code = self.code_of(_embedding_matrix(batch, self.col))
        return batch.append_column("lsh_code", pa.array(code, pa.int64()))


class LshTopK:
    """Approximate top-k: score a batch row against a query ONLY when
    their LSH codes are within ``max_hamming`` bits — the bucketed scale
    path (probes shrink the scored fraction; recall traded for cost)."""

    def __init__(self, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
                 bits: int = 16, max_hamming: int = 6, seed: int = 23,
                 id_col: str = "vec_id", col: str = "embedding"):
        self.q = _normalize(queries)
        self.query_ids = np.asarray(query_ids)
        self.k = k
        self.id_col = id_col
        self.col = col
        self.max_hamming = max_hamming
        self.bucketer = LshBucketer(self.q.shape[1], bits, seed, col)
        self.q_codes = self.bucketer.code_of(self.q)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        m = _normalize(_embedding_matrix(batch, self.col))
        codes = self.bucketer.code_of(m)
        out_q, out_v, out_s = [], [], []
        for qi, qcode in enumerate(self.q_codes):
            xor = (codes ^ qcode).astype(np.uint64)
            ham = np.unpackbits(xor.view(np.uint8).reshape(len(xor), 8), axis=1).sum(axis=1)
            probe = np.flatnonzero(ham <= self.max_hamming)
            if probe.size == 0:
                continue
            sims = m[probe] @ self.q[qi]
            k = min(self.k + 1, probe.size)
            top = np.argpartition(-sims, k - 1)[:k] if k < probe.size else np.arange(probe.size)
            for j in top:
                vid = ids[probe[j]]
                if vid == self.query_ids[qi]:
                    continue
                out_q.append(self.query_ids[qi])
                out_v.append(vid)
                out_s.append(sims[j])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )


def lsh_topk(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
             **stage_kwargs) -> pd.DataFrame:
    partial = ds.map_batches(
        LshTopK(queries=queries, query_ids=query_ids, k=k, **stage_kwargs),
        batch_format="pyarrow",
    )
    return reduce_topk(partial.to_pandas(), k)


class LshBandExploder:
    """Adds band keys and EXPLODES each row to one row per band:
    ``(band:int32, key:int64, id, embedding)``.  ``bits`` total
    hyperplane bits split into ``bands`` contiguous bands — near
    vectors agree on all bits of at least one band with high
    probability; random pairs share a band with probability ≈
    bands / 2^(bits/bands)."""

    def __init__(self, dim: int, bits: int = 32, bands: int = 4, seed: int = 23,
                 id_col: str = "vec_id", col: str = "embedding"):
        assert bits % bands == 0
        self.bucketer = LshBucketer(dim, bits, seed, col)
        self.bands = bands
        self.band_bits = bits // bands
        self.id_col = id_col
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        codes = self.bucketer.code_of(
            _embedding_matrix(batch, self.col)
        ).astype(np.uint64)
        mask = np.uint64((1 << self.band_bits) - 1)
        parts = []
        for b in range(self.bands):
            key = ((codes >> np.uint64(b * self.band_bits)) & mask).astype(np.int64)
            parts.append(
                pa.table(
                    {
                        "band": pa.array(np.full(len(batch), b, np.int32)),
                        "key": pa.array(key),
                        self.id_col: batch.column(self.id_col),
                        self.col: batch.column(self.col),
                    }
                )
            )
        return pa.concat_tables(parts)


def _bucket_pairs(g: pd.DataFrame, threshold: float, id_col: str,
                  col: str) -> pd.DataFrame:
    """All-pairs cosine for ALL (band, key) collision groups in one hash
    bucket; emits a < b.  One Ray group per BUCKET, not per collision
    key — collided buckets are mostly 2-3 vectors, so per-group
    pandas/Arrow churn would otherwise scale with dup count (the
    ``reduce_edge_bucket`` amortization)."""
    out_a: list = []
    out_b: list = []
    for _, pg in g.groupby(["band", "key"], sort=False):
        pg = pg.drop_duplicates(id_col)
        if len(pg) < 2:
            continue
        ids = pg[id_col].to_numpy()
        m = _normalize(np.stack(pg[col].to_numpy()))
        sims = m @ m.T
        ii, jj = np.nonzero(np.triu(sims > threshold, k=1))
        out_a.append(np.minimum(ids[ii], ids[jj]).astype(np.int64))
        out_b.append(np.maximum(ids[ii], ids[jj]).astype(np.int64))
    if not out_a:
        return pd.DataFrame({"a": pd.Series(dtype="int64"),
                             "b": pd.Series(dtype="int64")})
    return pd.DataFrame(
        {"a": np.concatenate(out_a), "b": np.concatenate(out_b)}
    )


def lsh_near_dup_pairs(ds, dim: int, threshold: float = 0.95, bits: int = 32,
                       bands: int = 4, seed: int = 23, id_col: str = "vec_id",
                       col: str = "embedding"):
    """Bucketed embedding near-dup: candidate pairs are generated ONLY
    within shared LSH band buckets (shuffle on the band key), then
    cosine-verified — the scale path that never broadcasts the corpus
    or compares all pairs.  Returns a Dataset of distinct (a, b) pairs
    with cosine > threshold that share ≥ 1 band.

    Semantics note: this is an approximation of exact all-pairs — at
    cosine ≈ 0.9+ a true near-dup shares a band with p ≈ 1 - (1 -
    0.97^8)^4 ≈ 0.999, while random pairs collide at ≈ 4/256.  The
    driver oracle replicates the band filter literally (same
    hyperplanes in SQL), so the check verifies the BUCKETED semantics
    exactly rather than hiding the approximation.  At true scale add
    the collided-bucket prefilter used by MinHash (dedup.py) to skip
    singleton buckets."""
    exploded = ds.map_batches(
        LshBandExploder(dim=dim, bits=bits, bands=bands, seed=seed,
                        id_col=id_col, col=col),
        batch_format="pyarrow",
    )
    from gliner_cpp_ray.stages.joins import bucketed_group_agg, keyed_exchange

    pairs = keyed_exchange(
        exploded, ["band", "key"],
        lambda g: _bucket_pairs(g, threshold, id_col, col),
    )
    # a pair found in several bands must count once

    return bucketed_group_agg(
        pairs, ["a", "b"], "count", out_col="__n"
    ).select_columns(["a", "b"])


# --- IVF (inverted-file) ANN ---------------------------------------------

def kmeans_centroids(sample: np.ndarray, n_centroids: int = 8,
                     n_iter: int = 5) -> np.ndarray:
    """Deterministic Lloyd k-means over a (small, driver-pulled) sample:
    init = the first ``n_centroids`` sample rows, ``n_iter`` fixed
    iterations, ties in assignment -> lowest centroid index (stable
    ``argmin``), empty cells keep their previous centroid.  No RNG, no
    convergence test — the same sample always yields the same centroids,
    which is what lets the DuckDB oracle replicate the index as literals.
    """
    m = np.asarray(sample, dtype=np.float64)
    cent = m[:n_centroids].copy()
    for _ in range(n_iter):
        d = ((m[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(n_centroids):
            pts = m[assign == c]
            if len(pts):
                cent[c] = pts.mean(axis=0)
    return cent


def kmeans_fit_distributed(ds, k: int = 8, n_iter: int = 3,
                           id_col: str = "vec_id",
                           col: str = "embedding") -> pa.Table:
    """FULL-CORPUS Lloyd k-means (vs ``kmeans_centroids``' driver-side
    sample): every iteration is ONE ``Dataset.aggregate`` whose
    accumulator is the fixed-size ((k, d) int64 sum matrix, (k,) count
    vector) — per-block vectorized assignment + partial sums, tree
    ``+`` merge, centroids broadcast via ``ray.put`` each round.  Data
    movement per iteration is O(tasks × k × d), independent of corpus
    size; the driver holds only k×d numbers between rounds.

    Integer-exact for oracle parity: vectors are micro-quantized
    (floor(x·1e6)), distances are int64 squared-L2 (|x|≤1e8 micro and
    d≤10⁴ stay < 2⁶³), assignment ties go to the lowest cell (stable
    argmin), centroid update is floor(sum/count) (true floor — numpy
    floor_divide; the SQL transcription uses floor(double division),
    identical while |sum| < 2⁵³), and an emptied cell keeps its
    previous centroid.  Init = the k rows with smallest ``id_col``
    (per-batch k-smallest combiner, k-row reduce — no sort shuffle).

    Returns the final centroids as a long (cell, dim, c_micro) Table,
    k×d rows."""
    import ray

    from ray.data.aggregate import AggregateFn

    def smallest(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        idx = np.argsort(ids, kind="stable")[:k]
        return t.take(pa.array(idx, pa.int64()))

    seeds = (
        ds.select_columns([id_col, col])
        .map_batches(smallest, batch_format="pyarrow")
        .repartition(1)  # tasks × k rows only
        .map_batches(smallest, batch_format="pyarrow", batch_size=None)
        .to_pandas()  # k rows — bounded by construction
    )
    order = np.argsort(seeds[id_col].to_numpy(), kind="stable")
    init = np.stack(
        [np.asarray(v, np.float64) for v in seeds[col].to_numpy()[order]]
    )
    cent = np.floor(init * 1e6).astype(np.int64)  # (k, d) micro
    d_dim = cent.shape[1]

    for _ in range(n_iter):
        cent_ref = ray.put(cent)

        def acc_block(st, block):
            sums, cnts = st
            t = (
                block
                if isinstance(block, pa.Table)
                else pa.Table.from_pandas(block)
            )
            x = np.floor(_embedding_matrix(t, col) * 1e6).astype(np.int64)
            c = ray.get(cent_ref)  # zero-copy plasma read, once per task
            diff = x[:, None, :] - c[None, :, :]
            assign = (diff * diff).sum(axis=2).argmin(axis=1)
            sums, cnts = sums.copy(), cnts.copy()
            np.add.at(sums, assign, x)
            np.add.at(cnts, assign, 1)
            return sums, cnts

        agg = AggregateFn(
            init=lambda key: (
                np.zeros((k, d_dim), np.int64),
                np.zeros(k, np.int64),
            ),
            merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            accumulate_block=acc_block,
            name="km",
        )
        sums, cnts = ds.aggregate(agg)["km"]
        nz = cnts > 0
        cent = cent.copy()
        cent[nz] = np.floor_divide(sums[nz], cnts[nz][:, None])

    return pa.table(
        {
            "cell": pa.array(np.repeat(np.arange(k, dtype=np.int64), d_dim)),
            "dim": pa.array(np.tile(np.arange(d_dim, dtype=np.int64), k)),
            "c_micro": pa.array(cent.reshape(-1)),
        }
    )


def embedding_second_moments(ds, col: str = "embedding") -> pa.Table:
    """Exact Gram / second-moment matrix of the micro-quantized corpus:
    ``sum over vectors of x_i · x_j`` for every dim pair i ≤ j — the
    sufficient statistic for covariance/PCA whitening, computed as ONE
    ``Dataset.aggregate`` with a fixed-size (d, d) int64 accumulator:
    per-block vectorized ``xᵀx`` matmul, tree ``+`` merge.  Data
    movement is O(tasks × d²), independent of corpus size.

    Integer-exact (micro quantization), so the SQL self-join oracle
    reproduces it bit-for-bit.  Overflow headroom: |x| ≤ 1e7 micro
    gives per-row products ≤ 1e14 — the int64 sum is exact to ~9·10⁴
    × corpus rows of that magnitude (≈10¹⁴ rows at unit-norm scale);
    raise the quantum if vectors are larger.

    Returns a long (d1, d2, sum_xy) Table, d(d+1)/2 rows."""
    from ray.data.aggregate import AggregateFn

    def acc_block(mat, block):
        t = (
            block
            if isinstance(block, pa.Table)
            else pa.Table.from_pandas(block)
        )
        x = np.floor(_embedding_matrix(t, col) * 1e6).astype(np.int64)
        if mat is None:
            mat = np.zeros((x.shape[1], x.shape[1]), np.int64)
        return mat + x.T @ x

    agg = AggregateFn(
        init=lambda key: None,  # dim learned from the first block
        merge=lambda a, b: b if a is None else (a if b is None else a + b),
        accumulate_block=acc_block,
        name="gram",
    )
    mat = ds.aggregate(agg)["gram"]
    d = mat.shape[0]
    iu = np.triu_indices(d)
    return pa.table(
        {
            "d1": pa.array(iu[0].astype(np.int64)),
            "d2": pa.array(iu[1].astype(np.int64)),
            "sum_xy": pa.array(mat[iu]),
        }
    )


def assign_cells(m: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid (squared-L2) cell per row; ties -> lowest cell."""
    d = ((np.asarray(m, dtype=np.float64)[:, None, :]
          - centroids[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)


def probe_cells_for_queries(queries: np.ndarray, centroids: np.ndarray,
                            n_probe: int) -> np.ndarray:
    """Per-query probe cells: the ``n_probe`` nearest centroids
    (distance asc, cell asc on ties — matches the oracle's ORDER BY
    d, cell).  Returns an [Q, n_probe] int array."""
    q_raw = np.asarray(queries, dtype=np.float64)
    d = ((q_raw[:, None, :] - np.asarray(centroids, np.float64)[None, :, :])
         ** 2).sum(axis=2)
    return np.argsort(d, axis=1, kind="stable")[:, :n_probe]


class CellAssigner:
    """Adds the nearest-centroid ``cell`` column — the one-off index
    build stage (see ``build_ivf_index``)."""

    def __init__(self, centroids, col: str = "embedding"):
        self.centroids = np.asarray(_resolve_broadcast(centroids), np.float64)
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        cells = assign_cells(
            _embedding_matrix(batch, self.col), self.centroids
        )
        return batch.append_column("cell", pa.array(cells.astype(np.int64)))


def build_ivf_index(ds, centroids: np.ndarray, index_dir: str,
                    **write_kwargs) -> None:
    """One-off cell-partitioned materialization of the corpus: assign
    every row its nearest-centroid cell and write Parquet PARTITIONED BY
    cell.  This is what makes IVF an inverted file at 100 TB — probes
    then prune the READ (only ~n_probe/n_cells of the corpus leaves
    storage per query wave), not just the scoring.  Train offline,
    assign once, probe many."""
    ds.map_batches(
        CellAssigner(np.asarray(centroids, np.float64)),
        batch_format="pyarrow",
    ).write_parquet(index_dir, partition_cols=["cell"], **write_kwargs)


class IvfTopK:
    """Per-batch IVF partial top-k: assign each batch row to its
    nearest-centroid cell (or reuse a precomputed ``cell`` column from
    the partitioned index), and score it ONLY against the queries whose
    ``n_probe`` nearest cells include that cell.  The centroid matrix
    (tiny) and query matrix are broadcast; with C cells and P probes the
    stage scores ~P/C of the corpus per query instead of all of it —
    the IVF scale path next to ``LshTopK``'s hamming-pruned one.
    """

    def __init__(self, queries: np.ndarray, query_ids: np.ndarray,
                 centroids: np.ndarray, n_probe: int = 3, k: int = 10,
                 id_col: str = "vec_id", col: str = "embedding"):
        q_raw = np.asarray(_resolve_broadcast(queries), dtype=np.float64)
        self.centroids = np.asarray(_resolve_broadcast(centroids), np.float64)
        self.q = _normalize(q_raw)
        self.query_ids = np.asarray(_resolve_broadcast(query_ids))
        self.k = k
        self.id_col = id_col
        self.col = col
        order = probe_cells_for_queries(q_raw, self.centroids, n_probe)
        self.cell_queries: dict[int, np.ndarray] = {}
        for qi in range(order.shape[0]):
            for c in order[qi]:
                self.cell_queries.setdefault(int(c), []).append(qi)
        self.cell_queries = {
            c: np.asarray(v, dtype=np.int64)
            for c, v in self.cell_queries.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        raw = _embedding_matrix(batch, self.col)
        if "cell" in batch.schema.names:
            # partitioned-index path: the cell is already materialized
            # (possibly as a hive-partition dictionary column)
            cell_col = batch.column("cell")
            if pa.types.is_dictionary(cell_col.type):
                cell_col = cell_col.cast(pa.string())
            cells = cell_col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        else:
            cells = assign_cells(raw, self.centroids)
        m = _normalize(raw)
        out_q, out_v, out_s = [], [], []
        for cell in np.unique(cells):
            qidx = self.cell_queries.get(int(cell))
            if qidx is None:
                continue
            rows = np.nonzero(cells == cell)[0]
            sims = m[rows] @ self.q[qidx].T  # [R, Qc]
            k = min(self.k + 1, len(rows))  # +1 covers self-exclusion
            for j, qi in enumerate(qidx):
                col = sims[:, j]
                top = (
                    np.argpartition(-col, k - 1)[:k]
                    if k < len(rows) else np.arange(len(rows))
                )
                for r in top:
                    if ids[rows[r]] == self.query_ids[qi]:
                        continue
                    out_q.append(self.query_ids[qi])
                    out_v.append(ids[rows[r]])
                    out_s.append(col[r])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )


def ivf_topk_indexed(index_dir: str, queries: np.ndarray,
                     query_ids: np.ndarray, centroids: np.ndarray,
                     k: int = 10, n_probe: int = 3,
                     id_col: str = "vec_id", col: str = "embedding",
                     ) -> pd.DataFrame:
    """IVF top-k over a cell-partitioned index (``build_ivf_index``):
    computes the probed cell set for the query wave and READS ONLY
    those partition directories — unprobed cells never leave storage
    (pruning by path selection, the unambiguous form of hive-partition
    pruning).  Output contract identical to ``ivf_topk`` (which remains
    the no-index streaming fallback)."""
    import os

    import ray.data as rd

    order = probe_cells_for_queries(queries, centroids, n_probe)
    probed = sorted({int(c) for c in order.ravel()})
    # ONE read over all probed partition directories.  (A first cut
    # built a read_parquet+map_batches dataset PER cell and union()ed
    # ~20 of them — correct, but each probed cell then carried its own
    # operator chain and the query spent 3x longer in orchestration
    # than in scoring.)  Unprobed cells still never leave storage: the
    # pruning is path selection, independent of how many read ops the
    # survivors share.
    import glob as _glob

    dirs = [
        f for c in probed
        for f in sorted(
            _glob.glob(os.path.join(index_dir, f"cell={c}", "*.parquet"))
        )
    ]
    if not dirs:
        return reduce_topk(
            pd.DataFrame(columns=["query_id", "vec_id", "score"]), k
        )
    # Task-pool UDF instance, not an actor pool: the stage state (8
    # query vectors + the centroid matrix) is a few KB, so shipping it
    # per task is cheaper than spinning actors up for a pruned read.
    # Leaf-directory reads drop the hive `cell` column; the stage
    # reassigns it from the same centroid matrix — bit-identical to the
    # partition value, since the index was built with assign_cells.
    stage = IvfTopK(
        queries=queries, query_ids=query_ids, centroids=centroids,
        n_probe=n_probe, k=k, id_col=id_col, col=col,
    )
    partial = rd.read_parquet(dirs).map_batches(stage, batch_format="pyarrow")
    return reduce_topk(partial.to_pandas(), k)


def ivf_topk(ds, queries: np.ndarray, query_ids: np.ndarray,
             centroids: np.ndarray, k: int = 10, n_probe: int = 3,
             **stage_kwargs) -> pd.DataFrame:
    """IVF approximate top-k (see ``IvfTopK``); same output contract as
    ``brute_force_topk``: (query_id, rank, vec_id).  Streaming no-index
    form: every row is read and cell-assigned per query wave — use
    ``build_ivf_index`` + ``ivf_topk_indexed`` when the corpus is
    queried more than once."""
    partial = ds.map_batches(
        IvfTopK(queries=queries, query_ids=query_ids, centroids=centroids,
                n_probe=n_probe, k=k, **stage_kwargs),
        batch_format="pyarrow",
    )
    return reduce_topk(partial.to_pandas(), k)
