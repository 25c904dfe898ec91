"""Ranked retrieval over the document corpus: integer-exact TF-IDF.

The IR building block a training-data pipeline needs for corpus search,
targeted subset selection ("all docs about X"), and relevance-ranked
sampling.  Classic BM25/TF-IDF weighting uses ``ln`` — a transcendental
whose last-ulp rounding may differ between engines, which would break
this repo's bit-exact oracle discipline.  We use the log-free idf
variant ``w_t = (SCALE * N) // df_t`` (pure int64 floor arithmetic):
monotone in 1/df like the classic form, and every intermediate is
integer, so a DuckDB transcription reproduces the distributed result
bit-for-bit.

Shape (two passes, both streaming):
1. DF pass — per-batch partials emit one row per QUERY term per batch
   (plus one ``__n_docs__`` row), so the shuffle is bounded by
   tasks × |terms|; a tiny groupby-sum lands |terms|+1 rows on the
   driver (query-bounded, never corpus-bounded).
2. Score pass — term weights ride into each task as plain instance
   state (broadcast once via cloudpickle); per-batch scoring is
   vectorized (token flatten + ``is_in`` mask + ``np.bincount`` per
   term); a per-batch top-k combiner bounds the final shuffle at
   tasks × k rows.

int64 headroom: ``SCALE * N * tf`` must stay below 2^63 — at 10^12
docs use SCALE=1e3 (weights keep 3 significant digits vs the 1e6
default used here).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

SCALE = 1_000_000
_N_DOCS_KEY = "__n_docs__"


def _tokens(batch: pa.Table, text_col: str):
    """Tokenization pinned to the token_counts SQL definition: RE2
    ``\\s+`` split of RE2-trimmed text, lowercased."""
    from gliner_cpp_ray.stages.text_analysis import _re2_trim

    trimmed = _re2_trim(batch.column(text_col))
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    flat = pc.utf8_lower(pc.list_flatten(toks))
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    nonempty = pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
    keep = nonempty[parents]
    return flat.filter(pa.array(keep)), parents[keep]


class QueryDfPartial:
    """Per-batch (term, df) partial restricted to the query terms, plus
    the ``__n_docs__`` counter row — one combinable pass for both."""

    def __init__(self, terms: list[str], text_col: str = "text"):
        self.terms = sorted(set(t.lower() for t in terms))
        self.text_col = text_col

    def _counter_rows(self, batch: pa.Table, flat) -> tuple[list, list]:
        """Leading counter rows (subclass hook): (keys, values)."""
        return [_N_DOCS_KEY], [batch.num_rows]

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, parents = _tokens(batch, self.text_col)
        out_terms, out_n = self._counter_rows(batch, flat)
        if len(flat):
            mask = pc.is_in(flat, value_set=pa.array(self.terms)).to_numpy(
                zero_copy_only=False
            )
            if mask.any():
                hit_terms = flat.filter(pa.array(mask)).to_pandas().to_numpy()
                hit_docs = parents[mask]
                per_doc = pd.DataFrame(
                    {"t": hit_terms, "d": hit_docs}
                ).drop_duplicates()
                counts = per_doc.groupby("t", sort=False).size()
                out_terms += list(counts.index)
                out_n += [int(v) for v in counts.to_numpy()]
        return pa.table(
            {
                "term": pa.array(out_terms, pa.string()),
                "n": pa.array(out_n, pa.int64()),
            }
        )


def _topk_batch(batch: pa.Table, id_col: str, hit: np.ndarray,
                score: np.ndarray, k: int) -> pa.Table:
    """Shared per-batch top-k combiner tail: keep hit docs, order by
    (score desc, id asc), emit at most k (doc_id, score_micro) rows."""
    df = pd.DataFrame(
        {
            "doc_id": batch.column(id_col).to_pandas().to_numpy()[hit],
            "score_micro": score[hit],
        }
    ).sort_values(["score_micro", "doc_id"], ascending=[False, True]).head(k)
    return pa.Table.from_pandas(df, preserve_index=False).cast(
        pa.schema([("doc_id", batch.schema.field(id_col).type),
                   ("score_micro", pa.int64())])
    )


def _empty_ranked(ds, id_col: str):
    """Empty (doc_id, score_micro, rank) result with the input's id type."""
    return ds.map_batches(
        lambda t: pa.table(
            {
                "doc_id": pa.array([], t.schema.field(id_col).type),
                "score_micro": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).limit(0)


def _ranked_topk(scored, k: int):
    """Final global rank over the per-batch combiner outputs (≤ tasks×k
    rows): one coalesce + one tiny sort, rank 1..k appended."""

    def final_rank(t: pa.Table) -> pa.Table:
        df = (
            t.to_pandas()
            .sort_values(["score_micro", "doc_id"], ascending=[False, True])
            .head(k)
            .reset_index(drop=True)
        )
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    return scored.repartition(1).map_batches(final_rank, batch_format="pyarrow")


class TfIdfScorer:
    """Vectorized per-batch scorer + top-k combiner.  ``weights`` is the
    query-bounded {term: w_t} table (broadcast as instance state)."""

    def __init__(self, weights: dict[str, int], k: int,
                 id_col: str = "doc_id", text_col: str = "text"):
        self.terms = sorted(weights)
        self.w = np.array([weights[t] for t in self.terms], np.int64)
        self.k = k
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, parents = _tokens(batch, self.text_col)
        score = np.zeros(n, np.int64)
        flat_np = flat.to_pandas().to_numpy() if len(flat) else np.array([], object)
        for ti, term in enumerate(self.terms):
            m = flat_np == term
            if m.any():
                tf = np.bincount(parents[m], minlength=n)
                score += tf * self.w[ti]
        # w_t >= SCALE and tf >= 1 for any present term, so score>0 is
        # exactly "any query term present" here
        return _topk_batch(batch, self.id_col, score > 0, score, self.k)


def tfidf_topk(ds, terms: list[str], k: int = 20,
               id_col: str = "doc_id", text_col: str = "text"):
    """Top-k docs by integer TF-IDF for a bag-of-terms query.

    Returns a Dataset (doc_id, score_micro, rank) with rank 1..k by
    (score desc, doc_id asc) — deterministic and SQL-replicable.
    """
    from ray.data.aggregate import Sum

    df_rows = (
        ds.map_batches(QueryDfPartial(terms, text_col), batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # |terms|+1 rows — query-bounded, never corpus-bounded
    )
    by_term = dict(zip(df_rows["term"], df_rows["n"].astype(int)))
    n_docs = by_term.pop(_N_DOCS_KEY, 0)
    weights = {
        t: (SCALE * n_docs) // df for t, df in by_term.items() if df > 0
    }
    if not weights or n_docs == 0:
        return _empty_ranked(ds, id_col)

    scored = ds.map_batches(TfIdfScorer(weights, k, id_col, text_col),
                            batch_format="pyarrow")
    return _ranked_topk(scored, k)


# ----------------------------------------------------------------- BM25

_N_TOKENS_KEY = "__n_tokens__"
BM25_SCALE = 10_000  # idf scale.  The per-term numerator is
# w_t·22·tf·avgdl_milli with w_t <= BM25_SCALE·N (df=1), so at 1e6 docs
# with avgdl~1e3 (avgdl_milli~1e6) a df=1 term overflows 2^63 already at
# tf~42 — NOT only at tf=dl.  Bm25Scorer therefore guards every term
# with an exact Python-int bound and raises OverflowError (numpy would
# wrap silently; the BIGINT SQL transcription raises — both sides must
# fail loudly, never diverge).  On bigger corpora lower BM25_SCALE
# (each /10 buys one decimal order of corpus·tf headroom at the cost of
# one digit of idf resolution).


class Bm25StatsPartial(QueryDfPartial):
    """Per-batch (term, df) partials plus BOTH corpus counters the BM25
    normalizer needs: ``__n_docs__`` and ``__n_tokens__`` (avgdl =
    tokens/docs).  One combinable pass — tokenizes each batch ONCE;
    shuffle stays tasks × (|terms|+2)."""

    def _counter_rows(self, batch: pa.Table, flat) -> tuple[list, list]:
        return [_N_DOCS_KEY, _N_TOKENS_KEY], [batch.num_rows, len(flat)]


class Bm25Scorer:
    """Vectorized integer-exact BM25 (k1=1.2, b=0.75) + top-k combiner.

    All arithmetic is int64 with every rational scaled through
    ``avgdl_milli = (1000·total_tokens)//n_docs``: per (doc, term)

        contribution = (w_t · 22·tf·avgdl_milli)
                       // (10·tf·avgdl_milli + 3·avgdl_milli + 9000·dl)

    which is tf·(k1+1)/(tf + k1·(1−b + b·dl/avgdl)) with numerator and
    denominator both multiplied by 10·avgdl_milli (k1·(1−b)=0.3,
    k1·b=0.9 — exact decimals), floored once.  A DuckDB transcription
    with BIGINT ``//`` reproduces every score bit-for-bit."""

    def __init__(self, weights: dict[str, int], avgdl_milli: int, k: int,
                 id_col: str = "doc_id", text_col: str = "text"):
        self.terms = sorted(weights)
        self.w = np.array([weights[t] for t in self.terms], np.int64)
        self.avgdl_milli = int(avgdl_milli)
        self.k = k
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, parents = _tokens(batch, self.text_col)
        dl = np.bincount(parents, minlength=n).astype(np.int64)
        score = np.zeros(n, np.int64)
        # hit = any query term present (NOT score>0): a floored
        # contribution of 0 must still keep the doc in the ranking,
        # exactly as the SQL's tf rows do
        hit = np.zeros(n, bool)
        flat_np = flat.to_pandas().to_numpy() if len(flat) else np.array([], object)
        av = self.avgdl_milli
        dl_max = int(dl.max()) if n else 0
        for ti, term in enumerate(self.terms):
            m = flat_np == term
            if not m.any():
                continue
            tf = np.bincount(parents[m], minlength=n).astype(np.int64)
            # overflow guard in exact Python ints: numpy int64 would
            # WRAP silently (wrong ranking, no error) where the BIGINT
            # SQL transcription raises — fail loudly on both sides
            # instead.  Bound both the numerator and the denominator by
            # the batch maxima; O(1) per term.
            w = int(self.w[ti])
            tf_max = int(tf.max())
            if max(w * 22 * tf_max * av,
                   10 * tf_max * av + 3 * av + 9000 * dl_max) >= 2 ** 63:
                raise OverflowError(
                    f"BM25 int64 overflow: term {term!r} w={w} tf_max="
                    f"{tf_max} avgdl_milli={av} dl_max={dl_max} — lower "
                    "BM25_SCALE (idf resolution) for this corpus size"
                )
            num = self.w[ti] * 22 * tf * av
            den = 10 * tf * av + 3 * av + 9000 * dl
            score += num // den  # tf=0 rows: num=0 → contribution 0
            hit |= tf > 0
        return _topk_batch(batch, self.id_col, hit, score, self.k)


def bm25_topk(ds, terms: list[str], k: int = 20,
              id_col: str = "doc_id", text_col: str = "text"):
    """Top-k docs by integer-exact BM25 for a bag-of-terms query.

    Same two-pass streaming shape as ``tfidf_topk`` (query-bounded
    stats shuffle; broadcast weights; per-batch top-k combiner), with
    the BM25 length normalizer: idf is the log-free
    ``(BM25_SCALE·N)//df`` variant, tf-saturation k1=1.2, length
    penalty b=0.75 against the corpus average doc length.  Returns
    (doc_id, score_micro, rank) by (score desc, doc_id asc)."""
    from ray.data.aggregate import Sum

    stats = (
        ds.map_batches(Bm25StatsPartial(terms, text_col), batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # |terms|+2 rows — query-bounded, never corpus-bounded
    )
    by_term = dict(zip(stats["term"], stats["n"].astype(int)))
    n_docs = by_term.pop(_N_DOCS_KEY, 0)
    n_tokens = by_term.pop(_N_TOKENS_KEY, 0)
    weights = {
        t: (BM25_SCALE * n_docs) // df for t, df in by_term.items() if df > 0
    }
    if not weights or n_docs == 0 or n_tokens == 0:
        return _empty_ranked(ds, id_col)
    avgdl_milli = (1000 * n_tokens) // n_docs

    scored = ds.map_batches(
        Bm25Scorer(weights, avgdl_milli, k, id_col, text_col),
        batch_format="pyarrow",
    )
    return _ranked_topk(scored, k)


def term_postings(ds, id_col: str = "doc_id", text_col: str = "text",
                  head_k: int = 8):
    """Inverted-index build with bounded posting heads: per term, its
    document frequency and the first ``head_k`` doc ids (ascending,
    comma-joined) — the retrieval-serving artifact one step past the
    DF table (``text_analysis.term_doc_frequency``): a shard of this
    table IS a serveable index fragment.

    -> Dataset (term, df, posting_head).

    Scale shape: per-batch (doc, term) distinct partials (each doc
    lives in exactly one batch, so rows are globally distinct); the
    posting heads ride ``grouped_top_k``'s per-batch min-k combiner —
    the shuffle carries tasks × terms × head_k rows, never the full
    postings; DF is one term-keyed grouped count; the final assembly
    sorts each term's ≤ head_k rows inside its hash bucket.  Full
    (unbounded) postings would be this same plan minus the combiner,
    written sharded — bounded heads keep the driver-checkable contract
    exact."""
    from gliner_cpp_ray.stages.joins import (
        bucketed_group_agg, bucketed_hash_join, keyed_runs,
    )
    from gliner_cpp_ray.stages.sizing import default_buckets
    from gliner_cpp_ray.stages.skew import grouped_top_k
    from gliner_cpp_ray.stages.text_analysis import doc_term_occurrences_partial

    occ = ds.map_batches(
        lambda t: doc_term_occurrences_partial(t, id_col, text_col)
        .select(["term", "doc_id"]),
        batch_format="pyarrow",
    ).materialize()  # consumed twice: DF count + posting heads

    # rows-scaled bucket count, cluster-capped (the pagerank rationale):
    # this plan pays ~4 hash exchanges, each with a per-group fixed
    # cost, so small corpora must not fan out to per-CPU × CPUs groups
    n_buckets = max(8, min(default_buckets(None), occ.count() // 250_000))

    df_tbl = bucketed_group_agg(occ, "term", "count", out_col="df",
                                n_buckets=n_buckets)

    heads = grouped_top_k(
        occ, "term", "doc_id", "doc_id", k=head_k, descending=False,
        n_buckets=n_buckets,
    )

    def assemble(g: pd.DataFrame, first: np.ndarray) -> pa.Table:
        runs = np.split(g["doc_id"].to_numpy(), np.flatnonzero(first)[1:])
        return pa.table(
            {
                "term": pa.array(g["term"].to_numpy()[first], pa.string()),
                "posting_head": pa.array(
                    [",".join(map(str, r)) for r in runs], pa.string()
                ),
            }
        )

    posting = keyed_runs(heads, ["term"], ["doc_id"], assemble, n_buckets)

    return bucketed_hash_join(
        df_tbl, posting, on="term", n_buckets=n_buckets,
        left_schema=pa.schema([("term", pa.string()), ("df", pa.int64())]),
        right_schema=pa.schema(
            [("term", pa.string()), ("posting_head", pa.string())]
        ),
    )


def doc_keywords(ds, k: int = 3, id_col: str = "doc_id",
                 text_col: str = "text", n_buckets: int | None = None):
    """Per-document top-k keywords by corpus TF-IDF — the metadata
    -enrichment / RAG-indexing operator (``tfidf_topk`` ranks DOCS for a
    query; this ranks TERMS for every doc).

    Integer-exact scoring (``score_micro = tf · ((SCALE·N) // df)``, the
    registry-wide log-free idf) so every score is SQL-replicable.

    Scale shape: (1) corpus DF table via the vectorized per-batch
    document-frequency partials + ONE term-keyed grouped sum —
    vocabulary-bounded, never a raw token shuffle; (2) per-doc (doc,
    term, tf) rows computed exactly inside each batch (a document lives
    in one row); (3) tf ⋈ df is a term-bucketed hash join (the
    vocabulary is corpus-scaled — never broadcast); (4) per-doc top-k
    rides the shuffle-bounded ``grouped_top_k`` combiner chain."""
    import pandas as pd

    from gliner_cpp_ray.stages.joins import bucketed_group_agg, bucketed_hash_join
    from gliner_cpp_ray.stages.skew import grouped_top_k
    from gliner_cpp_ray.stages.text_analysis import term_doc_frequency_partial

    n_docs = ds.count()  # parquet metadata count — no data pass

    df_tab = bucketed_group_agg(
        ds.map_batches(
            lambda t: term_doc_frequency_partial(t, text_col),
            batch_format="pyarrow",
        ),
        "term", specs=[("sum", "df", "df")], n_buckets=n_buckets,
    ).map_batches(
        lambda t: pa.table(
            {
                "term": t.column("term"),
                "w": pc.cast(
                    pc.divide(
                        pa.scalar(SCALE * n_docs, pa.int64()), t.column("df")
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def tf_partial(batch: pa.Table) -> pa.Table:
        flat, parents = _tokens(batch, text_col)
        ids = batch.column(id_col).to_pandas().to_numpy()
        d = pd.DataFrame({id_col: ids[parents], "term": flat.to_pandas()})
        counts = (
            d.groupby([id_col, "term"], sort=False).size().reset_index(name="tf")
        )
        return pa.table(
            {
                id_col: pa.array(counts[id_col],
                                 batch.schema.field(id_col).type),
                "term": pa.array(counts["term"], pa.string()),
                "tf": pa.array(counts["tf"].to_numpy(np.int64), pa.int64()),
            }
        )

    tf_tab = ds.map_batches(tf_partial, batch_format="pyarrow")
    joined = bucketed_hash_join(
        tf_tab, df_tab, on="term", n_buckets=n_buckets,
        left_schema=pa.schema(
            [(id_col, pa.int64()), ("term", pa.string()), ("tf", pa.int64())]
        ),
        right_schema=pa.schema([("term", pa.string()), ("w", pa.int64())]),
    ).map_batches(
        lambda t: pa.table(
            {
                id_col: t.column(id_col),
                "term": t.column("term"),
                "score_micro": pc.multiply(t.column("tf"), t.column("w")),
            }
        ),
        batch_format="pyarrow",
    )
    return grouped_top_k(
        joined, group_col=id_col, order_col="score_micro",
        id_col="term", k=k, n_buckets=n_buckets,
    )
