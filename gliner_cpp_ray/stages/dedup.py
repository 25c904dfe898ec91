"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale shapes:

* exact: vectorized content-hash column → ``groupby(hash)`` keep-first —
  one shuffle on the hash key;
* MinHash+LSH: per-batch vectorized signatures → explode to
  ``(band_id, band_hash, doc_id)`` rows → ``groupby(band)`` emits
  candidate pairs → signature-similarity verification → connected
  components over the (small) verified pair list;
* SimHash: 64-bit signatures, banded into 4×16-bit keys, Hamming-
  verified within buckets;
* the pairwise n-gram Jaccard verifier is shared by tests and callers.

Components of the verified pair list come from
``graph.connected_components``: each block's pairs become a union-find
forest, and only the forests' (node, label) rows reach the driver.  That
table is linear in duplicated docs even where the pair list is quadratic
(a mirror-heavy or boilerplate-flooded crawl).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


_PRIME = np.uint64((1 << 61) - 1)
_PRIME31 = np.uint64((1 << 31) - 1)


def _stable_u64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """Hashed byte k-shingles (uint64, deduplicated), vectorized.

    For k <= 8 the k UTF-8 bytes pack losslessly into a uint64 (a
    PERFECT hash — zero collisions) via a big-endian sliding-window dot
    product — exactly ``CAST(concat('0x', hex(window_bytes)) AS
    UBIGINT)`` in DuckDB, which is what lets the minhash oracle
    replicate shingling bit-for-bit in SQL.  Texts shorter than ``k``
    pack whole (empty text -> 0).  Larger k falls back to per-shingle
    blake2b (not SQL-expressible; non-default)."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if len(raw) < k:
        if k <= 8:
            return np.array(
                [int.from_bytes(bytes(raw), "big")], dtype=np.uint64
            )
        return np.array([_stable_u64(bytes(raw))], dtype=np.uint64)
    if k <= 8:
        windows = np.lib.stride_tricks.sliding_window_view(raw, k).astype(np.uint64)
        weights = np.uint64(1) << (np.arange(k - 1, -1, -1, dtype=np.uint64) * np.uint64(8))
        return np.unique(windows @ weights)
    out = {
        _stable_u64(bytes(raw[i : i + k])) for i in range(len(raw) - k + 1)
    }
    return np.fromiter(out, dtype=np.uint64, count=len(out))


def word_ngrams(text: str, n: int = 3) -> set[str]:
    toks = text.split()
    if len(toks) < n:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def ngram_hash_set(text: str, n: int = 3) -> np.ndarray:
    """Distinct md5-u60 hashes (int64-safe) of the word n-grams of
    ``text`` — the shingle set for n-gram-Jaccard dedup.

    Tokenization is the pinned RE2 ``\\s`` class ``[\\t\\n\\f\\r ]``
    (NOT ``str.split``, which also splits on ``\\v`` and Unicode
    spaces) so the DuckDB oracle's ``string_split_regex`` sees the
    identical token stream.  Fewer than ``n`` tokens -> ONE gram of all
    tokens joined; zero tokens -> the sentinel hash 0 (so empty docs
    have Jaccard 1.0 with each other, mirroring ``jaccard(set(),
    set()) == 1.0``)."""
    toks = [w for w in _SIMHASH_WS.split(text) if w]
    if not toks:
        return np.zeros(1, np.int64)
    if len(toks) < n:
        grams = {" ".join(toks)}
    else:
        grams = {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}
    # unique POST-hash (like the oracle's DISTINCT on the hash), sorted:
    # a 2^-60 gram-string collision must not leave a duplicate that
    # breaks assume_unique set math downstream
    return np.unique(
        np.fromiter(
            (
                int(hashlib.md5(g.encode("utf-8")).hexdigest()[:15], 16)
                for g in grams
            ),
            dtype=np.int64,
            count=len(grams),
        )
    )


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


# --- exact dedup ---------------------------------------------------------

def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    md5s = [
        hashlib.md5(t.encode("utf-8")).hexdigest()
        for t in batch.column(text_col).to_pylist()
    ]
    return batch.append_column("content_hash", pa.array(md5s, pa.string()))


def _batch_min_by_hash(batch: pa.Table, id_col: str) -> pa.Table:
    """Per-batch combiner: min id per content hash within the batch."""
    df = pd.DataFrame(
        {
            "content_hash": batch.column("content_hash").to_pandas(),
            id_col: batch.column(id_col).to_pandas(),
        }
    )
    out = df.groupby("content_hash", sort=False, as_index=False)[id_col].min()
    return pa.Table.from_pandas(out, preserve_index=False)


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Dataset -> deduplicated Dataset of (content_hash, min id).

    Two-phase combinable aggregate: a per-batch min combiner inside
    ``map_batches`` followed by a bucketed vectorized grouped-min —
    content hashes scale with the corpus, so neither a per-GROUP pandas
    reduce (singleton-group Python overhead) nor ``Dataset.aggregate``
    (per-distinct-key Python loop in its reduce) holds up; the
    per-whole-BUCKET C-level groupby does."""
    from gliner_cpp_ray.stages.joins import bucketed_group_agg

    hashed = ds.map_batches(add_content_hash, batch_format="pyarrow")
    combined = hashed.map_batches(
        lambda t: _batch_min_by_hash(t, id_col), batch_format="pyarrow"
    )
    return bucketed_group_agg(
        combined, "content_hash", "min", val_col=id_col, out_col=id_col
    )


# --- MinHash + LSH -------------------------------------------------------

class MinHashSigner:
    """Per-batch vectorized MinHash signatures + LSH band keys.

    ``num_perm`` permutations; ``bands`` bands of ``num_perm // bands``
    rows each.  Emits one row per (doc, band).

    Every step of the hash chain is deliberately SQL-expressible so the
    DuckDB oracle can replicate the WHOLE near-dup clustering literally
    (``_minhash_sql`` in pipelines/queries.py) instead of waiving it as
    rows-only:

    * shingle: big-endian byte pack (perfect hash; ``hex(window)``)
    * permutation: the classic universal family ``(a*(x mod p) + b)
      mod p`` over the Mersenne prime ``p = 2^31 - 1`` with a, b drawn
      full-range from [0, p) — ``a*(x mod p) < 2^62`` stays EXACT in
      uint64 (numpy) and DuckDB UBIGINT.  (A first attempt used
      ``p = 2^61 - 1`` with ``a < 2^31`` to dodge overflow; the weak
      multiplier made the hash near-monotone in x and biased the
      Jaccard estimate by ~0.2 — full-range ``a`` is load-bearing.)
    * band key: md5-u60 (first 15 HEX DIGITS of the digest) of the
      comma-joined decimal mins, ``md5(string_agg(...))`` in SQL.  60
      bits (not 64) so the key fits Arrow/pandas/DuckDB **int64**: a
      full-u64 key put values >= 2^63 in a shuffled column, and Ray's
      aggregate shuffle round-trips blocks through pandas where those
      overflow int64 inference and silently degrade the whole column
      to PICKLED PYTHON OBJECTS — correct but catastrophic at scale.
    """

    def __init__(
        self,
        num_perm: int = 64,
        bands: int = 16,
        shingle_k: int = 5,
        seed: int = 13,
        id_col: str = "doc_id",
        text_col: str = "text",
        shingle_mode: str = "bytes",
        ngram_n: int = 3,
    ):
        assert num_perm % bands == 0
        assert shingle_mode in ("bytes", "ngram")
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, int(_PRIME31), size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, int(_PRIME31), size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_k = shingle_k
        self.id_col = id_col
        self.text_col = text_col
        self.shingle_mode = shingle_mode
        self.ngram_n = ngram_n

    def signature(self, text: str) -> np.ndarray:
        if self.shingle_mode == "ngram":
            # word-n-gram shingles (md5-u60 hashed) — the candidate
            # generator for exact n-gram-Jaccard dedup
            sh = ngram_hash_set(text, self.ngram_n).view(np.uint64)
        else:
            sh = char_shingles(text, self.shingle_k)  # [S]
        x = sh % _PRIME31
        # a, x < 2^31 -> a*x < 2^62; + b stays below 2^64: exact
        # uint64 arithmetic, same expression exact in DuckDB UBIGINT
        prod = (self.a[:, None] * x[None, :] + self.b[:, None]) % _PRIME31
        return prod.min(axis=1)  # [num_perm]

    def band_key(self, chunk: np.ndarray) -> int:
        payload = ",".join(str(int(v)) for v in chunk)
        # 15 hex digits = 60 bits: int64-safe through every shuffle
        return int(hashlib.md5(payload.encode("utf-8")).hexdigest()[:15], 16)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        out_id, out_band, out_key, out_sig = [], [], [], []
        for i, t in zip(ids, texts):
            sig = self.signature(t)
            sig_bytes = sig.tobytes()
            for band in range(self.bands):
                lo = band * self.rows_per_band
                chunk = sig[lo : lo + self.rows_per_band]
                out_id.append(i)
                out_band.append(band)
                out_key.append(self.band_key(chunk))
                out_sig.append(sig_bytes)
        return pa.table(
            {
                "doc_id": pa.array(out_id),
                "band_id": pa.array(out_band, pa.int32()),
                "band_key": pa.array(out_key, pa.int64()),
                "signature": pa.array(out_sig, pa.binary()),
            }
        )


def bucket_candidate_pairs(g: pd.DataFrame, cap: int = 64) -> pd.DataFrame:
    """ALL (band_id, band_key) collision groups in one hash bucket:
    emit candidate doc pairs with their signatures.  One Ray group per
    BUCKET, not per collision key — collided buckets are mostly 2-3
    docs, so per-group pandas/Arrow churn would otherwise scale with
    dup count (the ``reduce_edge_bucket`` amortization).  Buckets larger
    than ``cap`` docs are near-identical floods (e.g. empty docs); pair
    them against the minimum id only, keeping output linear."""
    pairs_a: list = []
    pairs_b: list = []
    sa: list = []
    sb: list = []
    for _, pg in g.groupby(["band_id", "band_key"], sort=False):
        docs = pg.drop_duplicates("doc_id").sort_values("doc_id")
        n = len(docs)
        if n < 2:
            continue
        ids = docs["doc_id"].to_numpy()
        sigs = docs["signature"].to_numpy()
        if n > cap:
            for j in range(1, n):
                pairs_a.append(ids[0]); pairs_b.append(ids[j])
                sa.append(sigs[0]); sb.append(sigs[j])
        else:
            for x in range(n):
                for y in range(x + 1, n):
                    pairs_a.append(ids[x]); pairs_b.append(ids[y])
                    sa.append(sigs[x]); sb.append(sigs[y])
    return pd.DataFrame(
        {
            "a": pd.Series(pairs_a, dtype="int64"),
            "b": pd.Series(pairs_b, dtype="int64"),
            "sig_a": sa,
            "sig_b": sb,
        }
    )


def verify_pairs(batch: pa.Table, threshold: float = 0.8, num_perm: int = 64) -> pa.Table:
    """Estimated Jaccard = fraction of matching MinHash rows; keep pairs
    over threshold."""
    a = batch.column("a").to_pylist()
    b = batch.column("b").to_pylist()
    sa = batch.column("sig_a").to_pylist()
    sb = batch.column("sig_b").to_pylist()
    keep_a, keep_b, est = [], [], []
    seen = set()
    for x, y, bx, by in zip(a, b, sa, sb):
        if (x, y) in seen:
            continue
        seen.add((x, y))
        va = np.frombuffer(bx, dtype=np.uint64)
        vb = np.frombuffer(by, dtype=np.uint64)
        j = float((va == vb).mean())
        if j >= threshold:
            keep_a.append(x)
            keep_b.append(y)
            est.append(j)
    return pa.table(
        {
            "a": pa.array(keep_a, pa.int64()),
            "b": pa.array(keep_b, pa.int64()),
            "est_jaccard": pa.array(est, pa.float64()),
        }
    )


class ClusterAssigner:
    """Broadcast component lookup: doc_id -> cluster_id (= min doc_id of
    its near-dup component; identity for docs in no component).

    ``node`` (ascending) and ``label`` are ``connected_components``'
    columns: one entry per doc that participates in a verified near-dup
    pair, NOT per corpus row, so they ship once per worker (task-closure
    state via the object store) instead of pulling the full id column
    to the driver.  The lookup is a pure-int64 ``searchsorted`` — a
    pandas ``.map`` would round-trip misses through float64 NaN and
    silently corrupt ids above 2^53."""

    def __init__(self, node: np.ndarray, label: np.ndarray, id_col: str = "doc_id"):
        self.keys = np.asarray(node, np.int64)
        self.vals = np.asarray(label, np.int64)
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(self.keys):
            idx = np.clip(
                np.searchsorted(self.keys, ids), 0, len(self.keys) - 1
            )
            hit = self.keys[idx] == ids
            mapped = np.where(hit, self.vals[idx], ids)
        else:
            mapped = ids
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "cluster_id": pa.array(mapped, pa.int64()),
            }
        )


def _lsh_candidates(sigs):
    """Materialized signature table (doc_id, band_id, band_key,
    signature) -> candidate-pair Dataset (a, b, sig_a, sig_b), or
    ``None`` when no band bucket collides.

    Most band buckets are singletons; running the pair-expansion
    map_groups over every bucket pays per-group overhead for nothing.
    1) count per bucket (cheap grouped aggregate), 2) filter n >= 2
    DISTRIBUTIVELY so only the collided keys — bounded by true dup
    density, never the ≈ docs×bands singleton rows — reach the driver,
    3) broadcast them, 4) semi-join the signature rows and pair-expand
    only the survivors (flood-capped, ``bucket_candidate_pairs``)."""
    from gliner_cpp_ray.stages.joins import bucketed_group_agg, keyed_exchange

    hot = (
        bucketed_group_agg(
            sigs.select_columns(["band_id", "band_key"]),
            ["band_id", "band_key"], "count", out_col="n",
        )
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("n"), 2)),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    if hot.empty:
        return None
    hot_by_band = {
        int(b): np.sort(g["band_key"].to_numpy(np.int64))
        for b, g in hot.groupby("band_id")
    }
    # instance -> Ray TASKS on the warm worker pool: the key map (dup-
    # density-bounded) ships once per worker through the object store;
    # an actor pool here paid 1-2 s of spin-up per query for state that
    # builds in microseconds (see SCALE.md "tasks vs actor pools")
    return keyed_exchange(
        sigs.map_batches(_HotBucketFilter(hot_by_band), batch_format="pyarrow"),
        ["band_id", "band_key"],
        bucket_candidate_pairs,
    )


class _HotBucketFilter:
    """Broadcast semi-join of signature rows against the collided-bucket
    key set: per band, a vectorized ``searchsorted`` membership test
    against a sorted int64 key array (exact — no packing/truncation).
    The key map ships once per worker as task-closure state."""

    def __init__(self, hot_ref):
        import ray

        hot = ray.get(hot_ref) if isinstance(hot_ref, ray.ObjectRef) else hot_ref
        self.hot = {int(b): np.asarray(v, np.int64) for b, v in hot.items()}

    def __call__(self, t: pa.Table) -> pa.Table:
        bids = t.column("band_id").to_numpy(zero_copy_only=False)
        bkeys = t.column("band_key").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        mask = np.zeros(len(bids), dtype=bool)
        for b in np.unique(bids):
            arr = self.hot.get(int(b))
            if arr is None or not len(arr):
                continue
            sel = bids == b
            idx = np.clip(np.searchsorted(arr, bkeys[sel]), 0, len(arr) - 1)
            mask[sel] = arr[idx] == bkeys[sel]
        return t.filter(pa.array(mask))


def minhash_dedup_clusters(ds, threshold: float = 0.8, signer_kwargs: dict | None = None):
    """Dataset(doc_id, text) -> Dataset (doc_id, cluster_id).

    cluster_id = min doc_id of the near-duplicate component.  The
    verified pair list goes through ``graph.connected_components``; the
    resulting (node, label) table is broadcast back and assignment
    happens inside ``map_batches`` — the driver never materializes the
    id column (at 10^12 docs that column alone is terabytes).
    """
    from gliner_cpp_ray.stages.graph import connected_components

    signer_kwargs = signer_kwargs or {}
    # materialize: the signature table is consumed twice (bucket counts,
    # then the hot-bucket semi-join) and is small relative to the corpus
    # (num_perm*8B + band keys per doc) — re-signing would double the
    # dominant cost.  Instance (not class) -> plain tasks: signer setup
    # is an RNG array, far below actor-pool spin-up cost.
    sigs = ds.map_batches(
        MinHashSigner(**signer_kwargs), batch_format="pyarrow"
    ).materialize()

    node = label = np.zeros(0, np.int64)
    cands = _lsh_candidates(sigs)
    if cands is not None:
        comp = connected_components(
            cands.map_batches(
                verify_pairs, fn_kwargs={"threshold": threshold},
                batch_format="pyarrow",
            )
        )
        node, label = comp.column("node").to_numpy(), comp.column("label").to_numpy()
    return ds.select_columns(["doc_id"]).map_batches(
        ClusterAssigner(node, label), batch_format="pyarrow"
    )


# --- exact n-gram Jaccard ------------------------------------------------

class _PairSetEmitter:
    """For each doc that appears in a candidate pair, emit one row per
    (pair, side) carrying the doc's full n-gram hash set as binary.
    The pair-membership map (bounded by candidate-pair count, i.e. dup
    density after the LSH flood cap — never corpus-proportional) ships
    once per worker as task-closure state through the object store;
    docs in no pair are dropped here, so the shuffle that follows moves
    only candidate sets."""

    def __init__(self, membership_ref, n: int, id_col: str, text_col: str):
        import ray

        m = (
            ray.get(membership_ref)
            if isinstance(membership_ref, ray.ObjectRef)
            else membership_ref
        )
        self.membership = m  # {doc_id: [(a, b, side), ...]}
        self.n = n
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        out_a, out_b, out_side, out_set = [], [], [], []
        for i, text in zip(ids, texts):
            slots = self.membership.get(int(i))
            if not slots:
                continue
            payload = ngram_hash_set(text, self.n).tobytes()
            for a, b, side in slots:
                out_a.append(a)
                out_b.append(b)
                out_side.append(side)
                out_set.append(payload)
        return pa.table(
            {
                "a": pa.array(out_a, pa.int64()),
                "b": pa.array(out_b, pa.int64()),
                "side": pa.array(out_side, pa.int8()),
                "set": pa.array(out_set, pa.binary()),
            }
        )


def _pair_bucket_jaccard(g: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """Exact Jaccard for ALL candidate pairs in one hash bucket —
    one Ray group per bucket, not per pair (a per-pair ``map_groups``
    pays Ray's group overhead on every candidate; bucketing amortizes
    it the way ``reduce_edge_bucket`` does for KG edges).  The per-pair
    ``np.intersect1d`` over the two compact int64 sets is the inherent
    unit of work."""
    out_a: list[int] = []
    out_b: list[int] = []
    out_j: list[float] = []
    for (a, b), pg in g.groupby(["a", "b"], sort=False):
        sides = dict(zip(pg["side"], pg["set"]))
        if 0 not in sides or 1 not in sides:
            continue
        sa = np.frombuffer(sides[0], dtype=np.int64)
        sb = np.frombuffer(sides[1], dtype=np.int64)
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        j = inter / (len(sa) + len(sb) - inter)
        if j >= threshold:
            out_a.append(int(a))
            out_b.append(int(b))
            out_j.append(j)
    return pd.DataFrame(
        {
            "a": pd.Series(out_a, dtype="int64"),
            "b": pd.Series(out_b, dtype="int64"),
            "jaccard": pd.Series(out_j, dtype="float64"),
        }
    )


def ngram_jaccard_pairs(ds, threshold: float = 0.5, n: int = 3,
                        id_col: str = "doc_id", text_col: str = "text",
                        signer_kwargs: dict | None = None):
    """EXACT word-n-gram Jaccard near-dup pairs at scale: MinHash-LSH
    over the hashed n-gram sets generates the candidates (recall path —
    pairs missed by all 16 bands are missed, the standard LSH trade),
    then each candidate is verified by EXACT set Jaccard, streamed —
    the per-doc n-gram sets are never pulled to the driver.

    Dataset(doc_id, text) -> Dataset (a, b, jaccard), a < b, exact
    jaccard >= threshold.  Every step (n-gram extraction, md5-u60
    hashing, the Mersenne-31 signature family, banding, flood cap,
    exact intersection/union counts) is SQL-expressible, so the DuckDB
    oracle (``_ngram_jaccard_sql``) replicates the WHOLE pipeline
    literally — a full hash-matched check.

    Shuffle shape: signatures (1 row/doc/band) -> bucket counts ->
    candidate pairs (dup-density-bounded) -> ONE shuffle of candidate
    n-gram sets keyed by pair -> per-pair exact verify.  Docs in no
    candidate pair never ship their sets anywhere."""
    import ray

    signer_kwargs = dict(signer_kwargs or {})
    signer_kwargs.update(
        shingle_mode="ngram", ngram_n=n, id_col=id_col, text_col=text_col
    )
    sigs = ds.map_batches(
        MinHashSigner(**signer_kwargs), batch_format="pyarrow"
    ).materialize()

    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    cands = _lsh_candidates(sigs)
    if cands is None:
        return ray.data.from_arrow(empty)

    from gliner_cpp_ray.stages.joins import bucketed_group_agg, keyed_exchange

    pairs = (
        bucketed_group_agg(
            cands.select_columns(["a", "b"]), ["a", "b"], "count",
            out_col="__n",
        )
        .select_columns(["a", "b"])
        .to_pandas()  # bounded by dup density (same bound as union-find)
    )
    if pairs.empty:
        return ray.data.from_arrow(empty)

    membership: dict[int, list[tuple[int, int, int]]] = {}
    for a, b in pairs.itertuples(index=False):
        membership.setdefault(int(a), []).append((int(a), int(b), 0))
        membership.setdefault(int(b), []).append((int(a), int(b), 1))

    emitted = ds.map_batches(
        _PairSetEmitter(membership, n=n, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
    )
    return keyed_exchange(
        emitted, ["a", "b"], lambda g: _pair_bucket_jaccard(g, threshold)
    )


# --- train/test n-gram contamination -------------------------------------

def ngram_contamination(ds, n: int = 3, train_pct: int = 80,
                        id_col: str = "doc_id", text_col: str = "text",
                        n_buckets: int | None = None):
    """Benchmark-contamination check: split the corpus into train/test
    by the deterministic md5 split (``skew.train_test_split``), then for
    each TEST document count how many of its distinct word-n-gram
    hashes occur in ANY train document.

    Dataset(doc_id, text) -> Dataset(doc_id, n_grams, n_contaminated)
    over the test docs.  ``n_contaminated / n_grams`` is the standard
    contamination fraction used to decontaminate eval sets from
    training corpora.

    Scale shape: ONE pass hashes each doc's gram set (emitting
    (doc_id, gram_hash, train) int rows), materialized to the object
    store so it is computed once and consumed by both sides — the gram
    table is token-proportional and spillable; it never touches the
    driver.  The train side reduces to DISTINCT gram hashes
    (vocabulary-bounded).  The test side is BLOOM-PREFILTERED map-side
    (a fixed-size bitmap of the train gram hashes, built by one
    distributed OR-aggregate and broadcast once via ``ray.put``): test
    grams that definitely don't occur in train — the vast majority of
    an uncontaminated corpus — never enter the shuffle at all.
    Survivors (true hits + bloom false positives) are verified by an
    exact bucketed inner join against the distinct train grams; per-doc
    gram TOTALS come from a separate cheap groupby over the unfiltered
    test grams, and a final doc-keyed left join attaches hit counts
    (0 where no gram survived).  The answer is exact either way — the
    bloom only cuts shuffle volume.  No document text crosses the
    wire — only int64 hashes."""
    import ray
    import ray.data  # noqa: F401  (ensures Dataset API present)

    from gliner_cpp_ray.stages.joins import (
        _bloom_member,
        bucketed_group_agg,
        bucketed_hash_join,
        build_bloom,
    )
    from gliner_cpp_ray.stages.skew import split_threshold_hex

    th = split_threshold_hex(train_pct)

    def emit_grams(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        texts = t.column(text_col).to_pylist()
        out_doc, out_x, out_tr = [], [], []
        for i, txt in zip(ids, texts):
            is_train = hashlib.md5(str(i).encode()).hexdigest()[:8] < th
            xs = ngram_hash_set(txt, n)
            out_doc.extend([int(i)] * len(xs))
            out_x.extend(int(v) for v in xs)
            out_tr.extend([is_train] * len(xs))
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "x": pa.array(out_x, pa.int64()),
                "train": pa.array(out_tr, pa.bool_()),
            }
        )

    grams = ds.map_batches(emit_grams, batch_format="pyarrow").materialize()

    # distinct train gram hashes: per-batch sets are already distinct
    # (ngram_hash_set returns unique values); one groupby dedupes across
    # batches.  Vocabulary-bounded, never corpus-proportional.
    train_x = (
        bucketed_group_agg(
            grams.map_batches(
                lambda t: t.filter(t.column("train")).select(["x"]),
                batch_format="pyarrow",
            ),
            "x", "count", out_col="__n", n_buckets=n_buckets,
        )
        .select_columns(["x"])
        # vocabulary-bounded; materialized so the bloom build and the
        # join's schema() probe don't re-execute the distinct aggregate
        .materialize()
    )

    test_grams = grams.map_batches(
        lambda t: t.filter(pc.invert(t.column("train"))).select(
            ["doc_id", "x"]
        ),
        batch_format="pyarrow",
    )

    # per-doc gram totals: one cheap doc-keyed aggregate over the
    # UNFILTERED test grams (the bloom below drops non-hits, so totals
    # must be counted before it)
    totals = bucketed_group_agg(
        test_grams, "doc_id", "count", out_col="n_grams",
        n_buckets=n_buckets,
    ).materialize()  # doc-bounded (one row per test doc)

    # bloom prefilter: drop definitely-uncontaminated grams map-side
    n_hashes = 4
    bits_ref = ray.put(build_bloom(train_x, "x", n_hashes=n_hashes))

    def prefilter(t: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)  # zero-copy plasma read, once per task
        return t.filter(pa.array(_bloom_member(b, t.column("x"), n_hashes)))

    survivors = test_grams.map_batches(prefilter, batch_format="pyarrow")

    # exact verify: inner join removes bloom false positives; each
    # (doc, gram) row is unique, so the per-doc count IS the number of
    # distinct contaminated grams
    hits = bucketed_group_agg(
        bucketed_hash_join(
            survivors, train_x, on="x", n_buckets=n_buckets, how="inner"
        ),
        "doc_id", "count", out_col="n_contaminated", n_buckets=n_buckets,
    )
    hits_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_contaminated", pa.int64())]
    )

    # the final join is DOC-bounded (one row per test doc), not
    # gram-bounded: size its buckets from the materialized totals count
    # instead of reusing the gram-scale n_buckets (per-bucket fixed
    # costs dominate a tiny join — the r3 as-of-join lesson)
    from gliner_cpp_ray.stages.sizing import default_buckets as _db

    doc_buckets = max(8, min(_db(n_buckets), totals.count() // 100_000))
    out = bucketed_hash_join(
        totals, hits, on="doc_id", n_buckets=doc_buckets, how="left",
        right_schema=hits_schema,
    )

    def cast_int(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_grams": t.column("n_grams").cast(pa.int64()),
                "n_contaminated": pc.fill_null(
                    t.column("n_contaminated"), 0
                ).cast(pa.int64()),
            }
        )

    return out.map_batches(cast_int, batch_format="pyarrow")


# --- SimHash -------------------------------------------------------------

import re as _re

_SIMHASH_WS = _re.compile(r"[\t\n\f\r ]+")  # RE2 \s — pinned to the oracle


def _md5_u64(word: str) -> int:
    """Word hash for SimHash: first 8 bytes of md5, big-endian — chosen
    because it is SQL-expressible (``CAST(concat('0x', substr(md5(w),
    1, 16)) AS UBIGINT)``), which is what lets the DuckDB oracle
    replicate the whole signature bit-exactly."""
    return int(hashlib.md5(word.encode("utf-8")).hexdigest()[:16], 16)


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens — reference semantics for
    ONE text (tests + oracle documentation; the batch path is the
    vectorized ``add_simhash``).  Every word OCCURRENCE votes ±1 per
    bit; output bit k set iff the vote sum is positive."""
    acc = np.zeros(64, dtype=np.int64)
    for w in _SIMHASH_WS.split(text):
        if not w:
            continue
        h = np.uint64(_md5_u64(w))
        bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    out = 0
    for bit in np.nonzero(acc > 0)[0]:
        out |= 1 << int(bit)
    return out


def _simhash_batch(texts: pa.ChunkedArray | pa.Array, n_rows: int) -> np.ndarray:
    """Vectorized batch SimHash: tokenize once with Arrow kernels, md5
    only the BATCH-DISTINCT vocabulary, then accumulate all ±1 bit votes
    with one segmented reduce over the (sorted) token->doc mapping."""
    toks = pc.split_pattern_regex(texts, r"[\t\n\f\r ]+")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    parents = parents[nonempty]
    if not len(parents):
        return np.zeros(n_rows, np.uint64)
    words = pd.Series(flat.to_pandas().to_numpy()[nonempty])
    codes, uniq = pd.factorize(words, sort=False)
    h = np.fromiter(
        (_md5_u64(w) for w in uniq), dtype=np.uint64, count=len(uniq)
    )
    bits = (
        (h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    ).astype(np.int64)
    votes = 2 * bits - 1  # [U, 64] of ±1
    # parents is nondecreasing (list_parent_indices order) -> segment sum
    starts = np.concatenate([[0], np.nonzero(np.diff(parents))[0] + 1])
    seg_sums = np.add.reduceat(votes[codes], starts, axis=0)  # [S, 64]
    acc = np.zeros((n_rows, 64), np.int64)
    acc[parents[starts]] = seg_sums
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    return ((acc > 0).astype(np.uint64) * weights).sum(axis=1)


def add_simhash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    hs = _simhash_batch(batch.column(text_col), batch.num_rows)
    # int64 BIT VIEW (two's complement), not a value cast: signatures
    # with bit 63 set would exceed int64 as uint64 values, and columns
    # >= 2^63 degrade to pickled objects in Ray's groupby shuffle.  The
    # bits — all Hamming math needs — are preserved exactly.
    out = batch.append_column("simhash", pa.array(hs.view(np.int64), pa.int64()))
    # 4 bands x 16 bits: near-dups (Hamming<=3) share at least one band
    for band in range(4):
        key = (hs >> np.uint64(16 * band)) & np.uint64(0xFFFF)
        out = out.append_column(f"simhash_b{band}", pa.array(key.astype(np.int64), pa.int64()))
    return out


def hamming64(a: int, b: int) -> int:
    return bin(int(a) ^ int(b)).count("1")


def _simhash_bucket_pairs(g: pd.DataFrame, max_hamming: int) -> pd.DataFrame:
    """Pairs with Hamming <= max_hamming, for ALL (band, key) collision
    groups in one hash bucket — one Ray group per bucket, not per
    collision key (the ``reduce_edge_bucket`` amortization)."""
    out_a: list = []
    out_b: list = []
    for _, pg in g.groupby(["band", "key"], sort=False):
        pg = pg.drop_duplicates("doc_id")
        if len(pg) < 2:
            continue
        ids = pg["doc_id"].to_numpy()
        # undo the int64 bit view (XOR/popcount are bit ops; view is exact)
        hs = pg["simhash"].to_numpy(np.int64).view(np.uint64)
        xor = hs[:, None] ^ hs[None, :]
        ham = np.unpackbits(
            xor.view(np.uint8).reshape(len(hs), len(hs), 8), axis=2
        ).sum(axis=2)
        ii, jj = np.nonzero(np.triu(ham <= max_hamming, k=1))
        out_a.append(np.minimum(ids[ii], ids[jj]).astype(np.int64))
        out_b.append(np.maximum(ids[ii], ids[jj]).astype(np.int64))
    if not out_a:
        return pd.DataFrame({"a": pd.Series(dtype="int64"),
                             "b": pd.Series(dtype="int64")})
    return pd.DataFrame(
        {"a": np.concatenate(out_a), "b": np.concatenate(out_b)}
    )


def simhash_near_dup_pairs(ds, max_hamming: int = 3, id_col: str = "doc_id",
                           text_col: str = "text"):
    """SimHash near-dup: 64-bit signatures banded into 4x16-bit keys
    (any pair within Hamming 3 shares at least one band by pigeonhole),
    candidate pairs generated only within shared band buckets, verified
    by exact Hamming distance.  Same shuffle shape as MinHash banding;
    returns a Dataset of distinct (a, b) pairs."""
    def explode(t: pa.Table) -> pa.Table:
        t = add_simhash(t, text_col)
        parts = []
        for band in range(4):
            parts.append(
                pa.table(
                    {
                        "band": pa.array(np.full(t.num_rows, band, np.int32)),
                        "key": t.column(f"simhash_b{band}"),
                        "doc_id": t.column(id_col),
                        "simhash": t.column("simhash"),
                    }
                )
            )
        return pa.concat_tables(parts)

    from gliner_cpp_ray.stages.joins import bucketed_group_agg, keyed_exchange

    pairs = keyed_exchange(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["band", "key"],
        lambda g: _simhash_bucket_pairs(g, max_hamming),
    )
    return bucketed_group_agg(
        pairs, ["a", "b"], "count", out_col="__n"
    ).select_columns(["a", "b"])


# ------------------------------------------------- edit-distance join

def levenshtein_leq(s: str, t: str, d: int) -> bool:
    """Exact unit-cost Levenshtein ``<= d`` test (classic DP with a
    min-row early exit) — matches DuckDB's ``levenshtein`` on every
    pair, so the SQL oracle replicates the verify step literally."""
    if abs(len(s) - len(t)) > d:
        return False
    prev = list(range(len(t) + 1))
    for i, cs in enumerate(s, 1):
        cur = [i] + [0] * len(t)
        for j, ct in enumerate(t, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (cs != ct))
        if min(cur) > d:
            return False
        prev = cur
    return prev[-1] <= d


def _deletion_keys(s: str, d: int) -> set[str]:
    """FastSS deletion neighborhood: every string reachable by deleting
    at most ``d`` characters (Bocek et al. 2007).  Two strings within
    edit distance d ALWAYS share at least one such key, so grouping by
    these keys is a complete candidate generator."""
    out = {s}
    frontier = {s}
    for _ in range(d):
        nxt = set()
        for v in frontier:
            for i in range(len(v)):
                nxt.add(v[:i] + v[i + 1:])
        out |= nxt
        frontier = nxt
    return out


def _one_indel_apart(s: str, t: str) -> bool:
    """ED <= 1 for len(t) == len(s)+1: one two-pointer pass."""
    i = 0
    while i < len(s) and s[i] == t[i]:
        i += 1
    return s[i:] == t[i + 1:]


_ED_EMPTY = pd.DataFrame({"a": pd.Series(dtype="string"),
                          "b": pd.Series(dtype="string")})


def _ed_bucket_pairs(g: pd.DataFrame, d: int, n_buckets: int) -> pd.DataFrame:
    """Verified pairs for ALL deletion-key collision groups in one hash
    bucket — fully vectorized (no per-group Python loop; with FastSS
    key amplification most keys are singletons and group counts reach
    rows×len, so per-group overhead would dominate):

    1. factorize keys → drop singleton groups → sort by group id;
    2. expand within-group candidate (i, j) index pairs with
       batched ``triu_indices`` offset arithmetic, dedupe by value pair;
    3. verify: equal-length candidates by ONE padded codepoint-matrix
       mismatch count (ED<=1 between equal lengths ⟺ <=1 mismatch;
       padding compares equal beyond both lengths), length±1 candidates
       by a two-pointer pass, length-diff>1 dropped.

    Cross-bucket dedup is emission-side: a verified pair is emitted
    ONLY from the bucket owning its minimum common deletion key, so the
    global result needs NO pair shuffle afterwards (a 262k-pair
    two-string-column groupby cost 40 s at sf0.1; the local filter is
    ~1 µs/pair).

    d>1 falls back to the exact DP per deduped candidate."""
    bucket_id = _key_buckets(g["key"].iloc[:1], n_buckets)[0]
    codes, _ = pd.factorize(g["key"], sort=False)
    sizes = np.bincount(codes)
    keep = sizes[codes] >= 2
    if not keep.any():
        return _ED_EMPTY.copy()
    strings = g["s"].to_numpy()[keep]
    codes = codes[keep]
    # block prefix of each row's shuffle key ('' when unblocked) —
    # constant within a collision group; the canonical-ownership check
    # must rebuild keys with the SAME prefix or blocked pairs would be
    # owned by no bucket at all
    kept_keys = g["key"].to_numpy()[keep]
    prefixes = np.array(
        [k[: k.find("\x1f") + 1] for k in kept_keys], dtype=object
    )
    # drop duplicate (key, value) rows (several deletions of one string
    # can coincide) — then sort by group
    dd = pd.DataFrame(
        {"c": codes, "s": strings, "p": prefixes}
    ).drop_duplicates(subset=["c", "s"])
    dd = dd.sort_values(["c", "s"], kind="stable")  # (a<b within group)
    codes = dd["c"].to_numpy()
    strings = dd["s"].to_numpy()
    prefixes = dd["p"].to_numpy()
    n = len(codes)
    starts = np.r_[0, np.flatnonzero(np.diff(codes)) + 1]
    lens = np.diff(np.r_[starts, n])
    ii_parts, jj_parts = [], []
    for L in np.unique(lens):
        if L < 2:
            continue
        s_L = starts[lens == L]
        ti, tj = np.triu_indices(int(L), k=1)
        ii_parts.append((s_L[:, None] + ti[None, :]).ravel())
        jj_parts.append((s_L[:, None] + tj[None, :]).ravel())
    if not ii_parts:
        return _ED_EMPTY.copy()
    ii = np.concatenate(ii_parts)
    jj = np.concatenate(jj_parts)
    cand = pd.DataFrame(
        {"a": strings[ii], "b": strings[jj], "p": prefixes[ii]}
    ).drop_duplicates(subset=["a", "b"])
    a = cand["a"].to_numpy()
    b = cand["b"].to_numpy()
    pref = cand["p"].to_numpy()
    if d != 1:
        ok = np.fromiter(
            (levenshtein_leq(x, y, d) for x, y in zip(a, b)), bool, count=len(a)
        )
        return _canonical_bucket_pairs(a[ok], b[ok], pref[ok], d, bucket_id,
                                       n_buckets)
    la = np.fromiter((len(x) for x in a), np.int64, count=len(a))
    lb = np.fromiter((len(x) for x in b), np.int64, count=len(b))
    diff = np.abs(la - lb)
    ok = np.zeros(len(a), bool)
    eq = np.flatnonzero(diff == 0)
    if eq.size:
        maxlen = int(max(la[eq].max(), 1))
        A = np.array(list(a[eq]), dtype=f"U{maxlen}")
        B = np.array(list(b[eq]), dtype=f"U{maxlen}")
        mism = (
            A.view(np.uint32).reshape(len(eq), maxlen)
            != B.view(np.uint32).reshape(len(eq), maxlen)
        ).sum(axis=1)
        ok[eq[mism <= 1]] = True
    for idx in np.flatnonzero(diff == 1):
        s, t = a[idx], b[idx]
        if len(s) > len(t):
            s, t = t, s
        ok[idx] = _one_indel_apart(s, t)
    return _canonical_bucket_pairs(a[ok], b[ok], pref[ok], d, bucket_id,
                                   n_buckets)


def _canonical_bucket_pairs(a, b, pref, d: int, bucket_id: int,
                            n_buckets: int) -> pd.DataFrame:
    """Keep only the pairs this bucket CANONICALLY owns: the one whose
    minimum common deletion key (rebuilt with the pair's block prefix,
    matching the shuffle keys) hashes here.  Every verified pair has a
    non-empty common-key set (FastSS), each key lives in exactly one
    bucket, so each pair is emitted exactly once globally — no
    downstream pair shuffle."""
    if not len(a):
        return _ED_EMPTY.copy()
    kmin = [
        p + min(_deletion_keys(x, d) & _deletion_keys(y, d))
        for p, x, y in zip(pref, a, b)
    ]
    keep = _key_buckets(kmin, n_buckets) == bucket_id
    return pd.DataFrame({"a": pd.Series(a[keep], dtype="string"),
                         "b": pd.Series(b[keep], dtype="string")})


def _key_buckets(keys, n_buckets: int) -> np.ndarray:
    """The ``keyed_exchange`` bucket of each deletion key: ownership
    checks must hash exactly as the exchange that placed the keys."""
    from gliner_cpp_ray.stages.joins import add_group_bucket

    t = pa.table({"key": pa.array(keys, pa.string())})
    return add_group_bucket(t, ["key"], n_buckets).column("__bucket").to_numpy()


def edit_distance_pairs(ds, col: str, d: int = 1,
                        block_col: str | None = None):
    """Distinct unordered pairs of ``col`` values within Levenshtein
    distance ``d`` — the fuzzy-string near-dup join (names, titles,
    normalized URLs; NOT document bodies — key amplification is
    ``O(len^d)`` per row, so this is a SHORT-string operator).

    ``block_col``: optional BLOCKING column — only pairs agreeing on it
    are generated (the deletion key is block-prefixed, so cross-block
    candidates never even meet in a collision group).  Identical result
    to generating unblocked pairs and post-filtering on block equality
    (values are compared within their own block either way), but the
    candidate volume drops by the cross-block fraction BEFORE the
    shuffle — on sequentially-numbered MDM names at sf0.1 this is
    262k → ~10k pair rows through every downstream join.  (If the SAME
    two values co-exist in several blocks, the pair is emitted once per
    such block — harmless for the CC/merge consumers; the unblocked
    call stays globally distinct.)

    Shape: per-batch deletion-key explode (FastSS: complete by
    construction) → ONE bucket-hash shuffle of (key, value) rows →
    whole-bucket pair expansion with exact verification → distinct
    (a, b) via canonical-bucket emission (each pair leaves exactly one
    bucket, so there is NO second shuffle).  Collision-group sizes are
    bounded by how many values share a deletion variant —
    alphabet-sized in natural data; an adversarial corpus of one
    repeated value collapses to its distinct set first
    (``drop_duplicates`` per group input)."""
    from gliner_cpp_ray.stages.joins import keyed_exchange
    from gliner_cpp_ray.stages.sizing import default_buckets

    def explode(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_pylist()
        if block_col is None:
            distinct = {(None, s) for s in vals}
        else:
            blks = t.column(block_col).to_pylist()
            distinct = set(zip(blks, vals))
        keys: list[str] = []
        ss: list[str] = []
        for blk, s in distinct:
            # block values are ints (or must not contain \x1f when
            # strings), so \x1f separates them from the deletion key
            prefix = "" if blk is None else f"{blk}\x1f"
            for k in _deletion_keys(s, d):
                keys.append(prefix + k)
                ss.append(s)
        return pa.table(
            {"key": pa.array(keys, pa.string()), "s": pa.array(ss, pa.string())}
        )

    n_buckets = default_buckets(None)  # the ownership check needs it
    return keyed_exchange(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["key"],
        lambda g: _ed_bucket_pairs(g, d, n_buckets),
        n_buckets,
    )


def group_set_overlap(ds, group_col: str, key_col: str,
                      n_buckets: int = 16):
    """Exact pairwise set overlap between GROUPS: for every pair of
    groups sharing at least one key, |A∩B|, |A∪B| and the exact-integer
    Jaccard (micro-units).  Input: (group, key) rows, repeats allowed
    (collapsed internally).

    Returns Dataset (src_a, src_b, n_common, n_union, jaccard_micro),
    src_a < src_b, with a STABLE schema even when no pair overlaps.

    Movement: one grouped count collapses to distinct (group, key) rows
    (stays distributed, corpus-bounded); the intersection is a
    key-hash-bucketed self-merge that only pays for keys held by >= 2
    groups; set sizes are a |groups|-bounded aggregate carried into the
    final map as a plain dict (groups are feeds/hosts/shards —
    thousands, never corpus-proportional)."""
    from gliner_cpp_ray.stages.joins import bucketed_group_agg, keyed_exchange

    out_schema = pa.schema(
        [
            ("src_a", pa.string()),
            ("src_b", pa.string()),
            ("n_common", pa.int64()),
            ("n_union", pa.int64()),
            ("jaccard_micro", pa.int64()),
        ]
    )

    distinct_pairs = bucketed_group_agg(
        ds, [group_col, key_col], "count", out_col="_one",
    ).map_batches(
        lambda t: t.select([group_col, key_col]), batch_format="pyarrow"
    ).materialize()

    sizes = (
        bucketed_group_agg(distinct_pairs, group_col, "count", out_col="n")
        .to_pandas()  # |groups| rows — feed-bounded, never corpus-bounded
    )
    size_of = dict(zip(sizes[group_col], sizes["n"].astype(int)))

    pair_n_schema = pa.schema(
        [("src_a", pa.string()), ("src_b", pa.string()), ("n", pa.int64())]
    )

    def pairs_bucket(g: pd.DataFrame) -> pa.Table:
        # explicit Arrow schema even for empty buckets, so the overall
        # result keeps its columns when NO pair overlaps
        if not len(g):
            return pair_n_schema.empty_table()
        g = g[[group_col, key_col]]
        m = g.merge(g, on=key_col, suffixes=("_a", "_b"))
        m = m[m[f"{group_col}_a"] < m[f"{group_col}_b"]]
        if not len(m):
            return pair_n_schema.empty_table()
        c = (
            m.groupby([f"{group_col}_a", f"{group_col}_b"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "src_a": pa.array(c[f"{group_col}_a"], pa.string()),
                "src_b": pa.array(c[f"{group_col}_b"], pa.string()),
                "n": pa.array(c["n"].to_numpy(np.int64), pa.int64()),
            },
            schema=pair_n_schema,
        )

    inter = bucketed_group_agg(
        keyed_exchange(distinct_pairs, key_col, pairs_bucket, n_buckets),
        ["src_a", "src_b"], "sum", val_col="n", out_col="n_common",
    )

    def ratios(t: pa.Table) -> pa.Table:
        a = t.column("src_a").to_pylist()
        b = t.column("src_b").to_pylist()
        ni = t.column("n_common").to_numpy(zero_copy_only=False)
        na = np.array([size_of[s] for s in a], np.int64)
        nb = np.array([size_of[s] for s in b], np.int64)
        nu = na + nb - ni
        return pa.table(
            {
                "src_a": t.column("src_a").cast(pa.string()),
                "src_b": t.column("src_b").cast(pa.string()),
                "n_common": t.column("n_common"),
                "n_union": pa.array(nu),
                "jaccard_micro": pa.array(
                    1_000_000 * ni // nu if len(nu) else nu
                ),
            },
            schema=out_schema,
        )

    import ray.data as rd

    # when NO bucket yields a pair, zero blocks flow and the dataset
    # would have no schema at all — union one schema'd empty block so
    # consumers always see the stable column set
    return inter.map_batches(ratios, batch_format="pyarrow").union(
        rd.from_arrow(out_schema.empty_table())
    )


def source_mirror_overlap(ds, group_col: str = "source",
                          text_col: str = "text", k: int = 24):
    """Cross-SOURCE partial-mirror detection — which ingest feeds ship
    the same text: exact Jaccard overlap of the distinct ``k``-char
    window fingerprint sets (stages/substring.py double rolling hash —
    the same hash family the substring-dedup op pins and its oracle
    replicates literally) for every source pair sharing >= 1 fragment.
    The dedup-policy dashboard one level above ``source_dup_rates``
    (that op says "source X is 30% dups"; this one says "because it
    mirrors source Y") — and fragment-level, so partial mirrors
    (boilerplate wrapping, truncated syndication) register too.

    Returns Dataset (src_a, src_b, n_common, n_union, jaccard_micro),
    src_a < src_b, exact integers."""
    from gliner_cpp_ray.stages.substring import kgram_hashes

    pair_schema = pa.schema([("source", pa.string()), ("h", pa.int64())])

    def fragment_rows(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        srcs = t.column(group_col).to_pandas().to_numpy()
        di, _, h = kgram_hashes(texts, k)
        df = pd.DataFrame({"source": srcs[di], "h": h}).drop_duplicates()
        return pa.table(
            {
                "source": pa.array(df["source"], pa.string()),
                "h": pa.array(df["h"].to_numpy(np.int64), pa.int64()),
            },
            schema=pair_schema,
        )

    frags = ds.map_batches(fragment_rows, batch_format="pyarrow")
    return group_set_overlap(frags, "source", "h")


def segment_dedup_stats(ds, seg_len: int = 8, text_col: str = "text",
                        id_col: str = "doc_id", n_buckets: int | None = None):
    """Cross-document SEGMENT dedup stats — the paragraph-hash dedup of
    CCNet/MassiveText adapted to single-line documents: the unit is a
    non-overlapping run of ``seg_len`` tokens (last partial run kept),
    a "duplicated" segment is one whose text occurs in >= 2 DISTINCT
    documents, and the per-document report is the boilerplate signal a
    cleaning pipeline thresholds on before training.

    Scale shape (two key exchanges, nothing corpus-sized on the driver):

    1. per-batch map emits one ``(doc_id, h, n_inst)`` row per DISTINCT
       (document, segment-hash) pair — md5-u60 of the space-joined
       lowercased token run, the same SQL-expressible hash family the
       MinHash shingles use, so the DuckDB oracle replicates it
       literally.  Rows per doc <= tokens/seg_len; within-doc repeats
       collapse into ``n_inst`` before anything moves.
    2. ONE hash exchange on ``h``: within each bucket every row of a
       given hash is present, so the cross-doc flag is a vectorized
       per-group size >= 2 — emitted per row, same cardinality out.
    3. ONE hash exchange on ``doc_id`` (bucketed_group_agg) rolls up
       ``n_segments`` / ``n_dup_segments``; ``dup_ppm`` is exact int64
       floor arithmetic (headroom: segments-per-doc * 1e6 << 2^63).

    Returns Dataset (doc_id, n_segments, n_dup_segments, dup_ppm).
    Documents with zero tokens have zero segments and are absent, on
    both engines by construction."""
    from gliner_cpp_ray.stages.joins import bucketed_group_agg, keyed_exchange
    from gliner_cpp_ray.stages.retrieval import _tokens

    pair_schema = pa.schema(
        [(id_col, pa.int64()), ("h", pa.int64()), ("n_inst", pa.int64())]
    )

    def pairs(t: pa.Table) -> pa.Table:
        toks, parents = _tokens(t, text_col)
        if len(parents) == 0:
            return pair_schema.empty_table()
        doc = t.column(id_col).to_numpy(zero_copy_only=False)
        # within-doc token ordinal -> non-overlapping chunk id; parents
        # is ascending, so each doc's run start locates via searchsorted
        starts = np.searchsorted(parents, np.arange(t.num_rows))
        pos = np.arange(len(parents)) - starts[parents]
        chunk = pos // seg_len
        df = pd.DataFrame(
            {"p": parents, "c": chunk, "w": toks.to_pandas()}
        )
        # per-segment join preserves token order (groupby keeps row
        # order within groups); per-SEGMENT python md5 mirrors the
        # shingle-hash precedent above — not a per-row hot loop
        segs = df.groupby(["p", "c"], sort=False)["w"].agg(" ".join)
        h = np.fromiter(
            (
                int(hashlib.md5(s.encode("utf-8")).hexdigest()[:15], 16)
                for s in segs
            ),
            dtype=np.int64,
            count=len(segs),
        )
        pidx = segs.index.get_level_values(0).to_numpy()
        cnt = (
            pd.DataFrame({id_col: doc[pidx], "h": h})
            .groupby([id_col, "h"], sort=False)
            .size()
            .rename("n_inst")
            .reset_index()
        )
        return pa.table(
            {
                id_col: pa.array(cnt[id_col].to_numpy(np.int64)),
                "h": pa.array(cnt["h"].to_numpy(np.int64)),
                "n_inst": pa.array(cnt["n_inst"].to_numpy(np.int64)),
            },
            schema=pair_schema,
        )

    def flag(g: pd.DataFrame) -> pa.Table:
        # rows are globally distinct per (doc, h) — a doc lives in one
        # batch row — so per-h row count IS the distinct-doc count
        ndocs = g.groupby("h")["h"].transform("size").to_numpy()
        n_inst = g["n_inst"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                id_col: pa.array(g[id_col].to_numpy(np.int64)),
                "n_inst": pa.array(n_inst),
                "dup_inst": pa.array(
                    np.where(ndocs >= 2, n_inst, 0).astype(np.int64)
                ),
            }
        )

    pair = ds.map_batches(pairs, batch_format="pyarrow")
    flagged = keyed_exchange(pair, "h", flag, n_buckets)
    agg = bucketed_group_agg(
        flagged,
        id_col,
        specs=[("sum", "n_inst", "n_segments"),
               ("sum", "dup_inst", "n_dup_segments")],
    )

    def finish(t: pa.Table) -> pa.Table:
        return t.append_column(
            "dup_ppm",
            pc.divide(
                pc.multiply(t.column("n_dup_segments"),
                            pa.scalar(1_000_000, pa.int64())),
                t.column("n_segments"),
            ),
        )

    return agg.map_batches(finish, batch_format="pyarrow")
