"""Entity co-occurrence graph from the mention stream.

KG construction's classic "entity graph" complement to the typed edge
table: two canonical entities are connected iff some document mentions
both, weighted by the number of such documents.  The reference stops at
per-text span lists (src/decoder.cpp:19-86 output consumed by
examples/main.cpp); the co-mention rollup is the standard downstream
aggregate a KG-construction pipeline builds from exactly that output.

Scale shape (what matters at 100 TB):

1. ``doc_canon_partial`` (``map_batches``, pyarrow): mention rows →
   DISTINCT (doc_id, canon_id) pairs within the batch.  Canon
   resolution runs once per batch-distinct (surface, label) via Arrow
   dictionary codes (never per row), and the within-batch dedup
   (``np.unique`` over packed integer codes) is the combiner — a doc
   mentioning "Kyiv" 40 times ships ONE row into the shuffle.
2. ONE hash shuffle on ``doc_id`` (cluster-sized bucket count from
   stages/sizing.py).  A doc lands wholly in one bucket, so per-bucket
   dedup + pair expansion is globally exact.
3. ``pair_bucket_reduce`` over each WHOLE bucket (vectorized): global
   dedup, self-merge on doc_id (pandas hash join in C) keeping
   ``canon_a < canon_b``, then a C-level groupby count →
   (canon_a, canon_b, n) partials.  Pair volume is Σ_doc k_d² with
   k_d = distinct entities per doc — bounded by document length,
   independent of corpus size.  No per-key map_groups anywhere.
4. Final bucketed vectorized grouped-sum over the partial stream —
   vocabulary²-bounded rows, never raw mentions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from gliner_cpp_ray.stages.canonicalize import _dict_codes, _qid_of, canon_of
from gliner_cpp_ray.stages.linking import default_linker

_EMPTY_PARTIAL = pa.table(
    {
        "doc_id": pa.array([], pa.string()),
        "canon_id": pa.array([], pa.string()),
    }
)


def doc_canon_partial(batch: pa.Table, canon_map: dict) -> pa.Table:
    """mentions batch -> distinct (doc_id, canon_id) rows.

    Context-free canonicalization, identical to the node stage's
    mention partials (``canonicalize.resolve_surfaces``): the entity canon when (surface, label) is
    unambiguous in the alias dictionary, else the NIL surface cluster.
    """
    if batch.num_rows == 0:
        return _EMPTY_PARTIAL
    di, dd, row_canon, canon_strs = _canon_codes(batch, canon_map)

    # within-batch (doc, canon) dedup on packed integer codes
    packed = di * np.int64(len(canon_strs)) + row_canon
    u = np.unique(packed)
    doc_idx = u // len(canon_strs)
    can_idx = u % len(canon_strs)
    docs = pa.array(dd, pa.string()).take(pa.array(doc_idx, pa.int64()))
    canons = pa.array(canon_strs, pa.string()).take(pa.array(can_idx, pa.int64()))
    return pa.table({"doc_id": docs, "canon_id": canons})


def _canon_codes(batch: pa.Table, canon_map: dict):
    """Shared context-free canon resolution: -> (doc codes, doc
    dictionary, per-ROW canon code, canon strings).  Resolution runs
    once per batch-distinct (surface, label), never per row."""
    linker = default_linker()
    di, dd = _dict_codes(batch.column("doc_id"))
    si, sd = _dict_codes(batch.column("text"))
    li, ld = _dict_codes(batch.column("label"))

    combined = si * len(ld) + li
    uniq, inverse = np.unique(combined, return_inverse=True)
    canon_vocab: dict[str, int] = {}
    canon_strs: list[str] = []
    canon_code_of = np.empty(len(uniq), dtype=np.int64)
    for k, code in enumerate(uniq):
        l = int(code) % len(ld)
        s = int(code) // len(ld)
        canon = canon_of(canon_map, sd[s], ld[l], _qid_of(linker, sd[s], ld[l]))
        cid = canon_vocab.get(canon)
        if cid is None:
            cid = canon_vocab[canon] = len(canon_vocab)
            canon_strs.append(canon)
        canon_code_of[k] = cid
    return di, dd, canon_code_of[inverse], canon_strs


def doc_canon_counts(batch: pa.Table, canon_map: dict) -> pa.Table:
    """mentions batch -> (doc_id, canon_id, n) per-batch mention COUNTS
    (the non-distinct sibling of ``doc_canon_partial``): partials for a
    downstream group-sum, feeding salience/frequency rollups."""
    if batch.num_rows == 0:
        return _EMPTY_PARTIAL.append_column("n", pa.array([], pa.int64()))
    di, dd, row_canon, canon_strs = _canon_codes(batch, canon_map)
    packed = di * np.int64(len(canon_strs)) + row_canon
    u, counts = np.unique(packed, return_counts=True)
    doc_idx = u // len(canon_strs)
    can_idx = u % len(canon_strs)
    return pa.table(
        {
            "doc_id": pa.array(dd, pa.string()).take(
                pa.array(doc_idx, pa.int64())
            ),
            "canon_id": pa.array(canon_strs, pa.string()).take(
                pa.array(can_idx, pa.int64())
            ),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        }
    )


def pair_bucket_reduce(g: pd.DataFrame) -> pd.DataFrame:
    """Whole-bucket pair expansion: dedup, self-join on doc_id, count."""
    if not len(g):
        return pd.DataFrame(
            {
                "canon_a": pd.Series([], dtype=object),
                "canon_b": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
            }
        )
    g = g.drop_duplicates(["doc_id", "canon_id"])[["doc_id", "canon_id"]]
    m = g.merge(g, on="doc_id", suffixes=("_a", "_b"))
    m = m[m["canon_id_a"] < m["canon_id_b"]]
    out = (
        m.groupby(["canon_id_a", "canon_id_b"], sort=False)
        .size()
        .reset_index(name="n")
    )
    out.columns = ["canon_a", "canon_b", "n"]
    out["n"] = out["n"].astype(np.int64)
    return out


def cooccurrence_counts(mentions_ds, canon_map: dict, n_buckets: int | None = None):
    """-> Dataset(canon_a, canon_b, n_docs): documents co-mentioning
    each unordered canonical-entity pair.  ``mentions_ds`` needs columns
    (doc_id, text, label); ``canon_map`` is the pipeline's persisted
    canonicalization map (pipelines/kg.py stage 3)."""
    from gliner_cpp_ray.stages.joins import bucketed_group_agg, keyed_exchange
    from gliner_cpp_ray.stages.sizing import default_buckets

    n_buckets = default_buckets(n_buckets)
    partial = mentions_ds.map_batches(
        doc_canon_partial,
        fn_kwargs={"canon_map": canon_map},
        batch_format="pyarrow",
    )
    pairs = keyed_exchange(partial, "doc_id", pair_bucket_reduce, n_buckets)
    return bucketed_group_agg(
        pairs, ["canon_a", "canon_b"], "sum", val_col="n",
        out_col="n_docs", n_buckets=n_buckets,
    )


def basket_pair_counts(ds, basket_col: str, item_col: str,
                       min_support: int = 2, n_buckets: int | None = None):
    """Market-basket pair mining: count, over all baskets, how many
    baskets contain BOTH items of each unordered pair; keep pairs with
    support >= ``min_support`` (the frequent-2-itemset primitive under
    recommendations / co-purchase graphs).

    Same scale shape as the entity co-occurrence graph above: a
    per-batch DISTINCT (basket, item) combiner, ONE basket-hash bucket
    shuffle (a basket lands wholly in one bucket, so the per-bucket
    self-merge is globally exact), vectorized pair expansion bounded by
    sum over baskets of k_b^2 (basket width, not corpus size), then a
    pair-keyed grouped sum.  Raw basket rows never cross the wire
    twice; nothing touches the driver.
    """
    import pyarrow.compute as pc

    from gliner_cpp_ray.stages.joins import bucketed_group_agg, keyed_exchange
    from gliner_cpp_ray.stages.sizing import default_buckets

    n_buckets = default_buckets(n_buckets)
    a_col, b_col = f"{item_col}_a", f"{item_col}_b"

    def distinct_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                basket_col: t.column(basket_col).to_pandas(),
                item_col: t.column(item_col).to_pandas(),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([basket_col, item_col])
        if not len(g):
            return pd.DataFrame(
                {
                    a_col: pd.Series([], dtype=np.int64),
                    b_col: pd.Series([], dtype=np.int64),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        m = g.merge(g, on=basket_col, suffixes=("_a", "_b"))
        m = m[m[a_col] < m[b_col]]
        out = m.groupby([a_col, b_col], sort=False).size().reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return out

    pairs = keyed_exchange(
        ds.map_batches(distinct_partial, batch_format="pyarrow"),
        [basket_col], expand, n_buckets,
    )
    summed = bucketed_group_agg(
        pairs, [a_col, b_col], specs=[("sum", "n", "n")], n_buckets=n_buckets
    )
    return summed.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n"), min_support)),
        batch_format="pyarrow",
    )
