"""Substring-level exact duplication — repeated character k-grams.

The substring-dedup primitive from "Deduplicating Training Data Makes
Language Models Better" (Lee et al., 2022): find every length-``k``
character window that occurs in more than one document, and report, per
document, how many of its window positions are cross-document
duplicates.  Suffix arrays find the same matches; at cluster scale the
equivalent (and shuffle-friendly) formulation is a rolling-hash
self-join, which is what this stage does:

1. **hash pass** — every doc's codepoints are decoded once
   (``utf-32-le`` → one uint32 numpy array per batch, vectorized
   across ALL docs in the batch via one concatenated array), and each
   window position gets a double 31-bit polynomial hash
   ``h = h1 * 2^31 + h2`` with ``h_i = sum_j cp[pos+j] * B_i^(k-1-j)
   mod (2^31 - 1)``.  The hash family is deliberately SQL-expressible
   (codepoint extraction + literal power tables), so the DuckDB oracle
   replicates the bucketing LITERALLY — the approximate machinery is
   hash-checked, not waved through.  Collision risk of the 62-bit pair
   is birthday-bounded: ~1e-9 at a billion distinct grams per the
   2^62 space; a colliding pair would merely overcount one window.
2. **dup-key reduce** — (h, doc_id) rows (distinct per doc by
   construction: a doc lives in one batch, and per-doc duplicates are
   collapsed before emission) are grouped by ``h``; keys spanning >= 2
   distinct docs form the duplicate-gram set.  Its size is bounded by
   cross-doc duplication density, not corpus size.
3. **stat pass** — the dup-key set is broadcast (``ray.put`` once,
   ``np.searchsorted`` membership per batch) and each doc counts its
   duplicated window positions.

Scale notes: the hash pass shuffles two int64s per window position
(~16 bytes/char at ``sample_mod=1``) — the same volume a distributed
suffix-array build moves, and the documented knob is ``sample_mod``:
CONTENT-DEFINED sampling keeps only windows with ``h mod s == 0``, so
identical substrings keep identical windows in every doc regardless of
alignment (a fixed positional stride would not: kept offsets depend on
where the shared substring starts in each doc).  Shuffle volume drops
~s×; a duplicated substring of length L >= k survives with probability
1 - (1 - 1/s)^(L - k + 1) — near-certain for the long boilerplate runs
substring dedup exists to catch.  The dup-key broadcast assumes dup
density is corpus-bounded (same assumption, same gate-style remedy as
MinHash clustering: spill to a bucketed join when the dup set outgrows
the broadcast budget).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

MOD = (1 << 31) - 1  # Mersenne prime 2^31 - 1
B1 = 1_000_003
B2 = 805_306_457


def _powers(base: int, k: int) -> np.ndarray:
    out = np.empty(k, dtype=np.uint64)
    p = 1
    for i in range(k):
        out[i] = p
        p = (p * base) % MOD
    return out


def kgram_hashes(texts: list[str], k: int, sample_mod: int = 1):
    """Vectorized double rolling hash for a BATCH of texts.

    Returns (doc_idx, pos, h) numpy arrays over the window positions of
    all texts (pos is a 0-based codepoint offset; with ``sample_mod=s``
    only content-selected windows ``h % s == 0`` are kept — see module
    doc).  One concatenated codepoint array serves the whole batch: k
    shifted multiply-adds over it (products < 2^52, sums < 2^53 — exact
    in uint64 with a mod per step), then boundary-crossing positions
    are masked out.  No per-document Python beyond the decode loop."""
    if not texts:
        z = np.zeros(0, np.int64)
        return z, z, z
    cps = [
        np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32) for t in texts
    ]
    lens = np.array([len(c) for c in cps], dtype=np.int64)
    flat = (
        np.concatenate(cps).astype(np.uint64)
        if lens.sum()
        else np.zeros(0, np.uint64)
    )
    starts = np.concatenate([[0], np.cumsum(lens)])
    n = len(flat)
    if n < k:
        z = np.zeros(0, np.int64)
        return z, z, z
    n_pos = n - k + 1
    pw1, pw2 = _powers(B1, k), _powers(B2, k)
    h1 = np.zeros(n_pos, dtype=np.uint64)
    h2 = np.zeros(n_pos, dtype=np.uint64)
    for j in range(k):
        c = flat[j : j + n_pos]
        h1 = (h1 + c * pw1[k - 1 - j]) % MOD
        h2 = (h2 + c * pw2[k - 1 - j]) % MOD
    h = (h1 << np.uint64(31) | h2).astype(np.int64)

    pos_all = np.arange(n_pos, dtype=np.int64)
    doc_idx = np.searchsorted(starts, pos_all, side="right") - 1
    # window must end inside its own doc
    ok = pos_all + k <= starts[doc_idx + 1]
    rel = pos_all - starts[doc_idx]
    if sample_mod > 1:
        ok &= h % sample_mod == 0
    return doc_idx[ok], rel[ok], h[ok]


def repeated_kgram_stats(docs_ds, k: int = 24, sample_mod: int = 1,
                         id_col: str = "doc_id", text_col: str = "text"):
    """-> Dataset(doc_id, n_grams, dup_grams): per doc, total window
    positions and positions whose k-gram occurs in >= 2 distinct docs.
    With ``sample_mod > 1`` both counts are over the content-sampled
    windows only (the ratio stays an unbiased duplication estimate).
    See the module docstring for the three passes and scale shape."""
    import ray

    from gliner_cpp_ray.stages.joins import keyed_exchange

    def emit_hashes(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy()
        texts = t.column(text_col).to_pylist()
        di, _, h = kgram_hashes(texts, k, sample_mod)
        df = pd.DataFrame({"h": h, id_col: ids[di]})
        # per-doc distinct BEFORE the shuffle: a gram repeated inside
        # one doc ships once, and (h, doc) is then globally distinct
        # because a doc lives entirely in one batch
        df = df.drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = docs_ds.select_columns([id_col, text_col]).map_batches(
        emit_hashes, batch_format="pyarrow"
    )

    def dup_keys(g: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (h, doc), so the per-h ROW count IS the
        # distinct-doc count; one C-level value_counts per bucket —
        # never Ray's per-key aggregate loop (measured 7× slower on a
        # 1.4M-key table)
        vc = g["h"].value_counts()
        return pd.DataFrame(
            {"h": vc.index[vc.ge(2)].to_numpy(dtype=np.int64)}
        )

    # dup set: bounded by cross-doc duplication density (documents that
    # share no text contribute nothing) — broadcast once via ray.put
    dup = keyed_exchange(pairs, "h", dup_keys).to_pandas()
    dup_sorted = ray.put(np.sort(dup["h"].to_numpy(dtype=np.int64)))

    def count_dups(t: pa.Table) -> pa.Table:
        keys = ray.get(dup_sorted)
        ids = t.column(id_col).to_numpy()
        texts = t.column(text_col).to_pylist()
        di, _, h = kgram_hashes(texts, k, sample_mod)
        if len(keys):
            idx = np.searchsorted(keys, h)
            idx[idx == len(keys)] = 0
            isdup = keys[idx] == h
        else:
            isdup = np.zeros(len(h), dtype=bool)
        n_grams = np.bincount(di, minlength=len(ids)).astype(np.int64)
        dup_grams = np.bincount(
            di[isdup], minlength=len(ids)
        ).astype(np.int64)
        return pa.table(
            {
                id_col: t.column(id_col),
                "n_grams": pa.array(n_grams, pa.int64()),
                "dup_grams": pa.array(dup_grams, pa.int64()),
            }
        )

    return docs_ds.select_columns([id_col, text_col]).map_batches(
        count_dups, batch_format="pyarrow"
    )
