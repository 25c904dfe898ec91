"""Text-analysis operators for large-scale training-data pipelines.

All are stateless vectorized ``map_batches`` transforms over a table
with (id_col, text) columns — designed for the ``documents`` testdata
table but schema-agnostic.  Counting operators emit INTEGER columns
(counts, not ratios) so DuckDB oracles hash-match exactly.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_WS = re.compile(r"\s+")
# Tokenization trim, pinned to ONE definition on both sides of the
# oracle: RE2 ``\s`` (pyarrow and DuckDB both compile with RE2, so the
# class is identical).  ``pc.utf8_trim_whitespace`` trims UNICODE
# whitespace while DuckDB ``trim()`` strips spaces only — either choice
# silently diverges from the other side on tab/newline/NBSP-edged text.
_TRIM_RE = r"^\s+|\s+$"


def _re2_trim(col):
    return pc.replace_substring_regex(col, _TRIM_RE, "")
_STOPWORDS = {
    "the", "and", "of", "a", "to", "in", "is", "it", "for", "on", "with",
}
# minimal per-language stopword profiles for the n-gram/stopword language id
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "in", "is", "for", "with", "on", "a"},
    "de": {"der", "die", "das", "und", "ist", "mit", "für", "auf", "den", "von"},
    "es": {"el", "la", "los", "de", "y", "es", "en", "por", "con", "para"},
    "fr": {"le", "la", "les", "de", "et", "est", "en", "pour", "que", "dans"},
    "uk": {"і", "та", "що", "на", "не", "з", "до", "за", "як", "це"},
}


def token_counts(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Whitespace token count (SQL-matchable definition):
    ``len(split(re2_trim(text), r"\\s+"))`` with empty text counting 0."""
    trimmed = _re2_trim(batch.column(text_col))
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    n = pc.list_value_length(toks).cast(pa.int64())
    empty = pc.equal(trimmed, "")
    n = pc.if_else(empty, pa.scalar(0, pa.int64()), n)
    return pa.table({id_col: batch.column(id_col), "n_tokens": n})


def quality_counts(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Quality-signal counts per document: characters, alpha chars,
    digits, whitespace tokens, stopword tokens.  Quality ratios
    (alpha/len, stop/tokens, mean token length) are derivable downstream;
    integers keep oracle comparison exact.

    Fully vectorized via pyarrow.compute, and pinned to the ORACLE's
    character classes — explicit ASCII ``[A-Za-z]`` / ``[0-9]`` and RE2
    ``\\s`` (pyarrow and DuckDB both compile regexes with RE2, so the
    definitions agree on every input, not just ASCII testdata; the old
    Python ``c.isalpha()`` loop diverged on non-ASCII letters)."""
    text = batch.column(text_col)
    n_chars = pc.utf8_length(text).cast(pa.int64())
    n_alpha = pc.utf8_length(
        pc.replace_substring_regex(text, "[^A-Za-z]", "")
    ).cast(pa.int64())
    n_digit = pc.utf8_length(
        pc.replace_substring_regex(text, "[^0-9]", "")
    ).cast(pa.int64())

    trimmed = _re2_trim(text)
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    zero = pa.scalar(0, pa.int64())
    empty = pc.equal(trimmed, "")
    n_token = pc.if_else(empty, zero, pc.list_value_length(toks).cast(pa.int64()))

    # stopword hits: flatten token lists once, lowercase, membership via
    # a vectorized is_in, then re-aggregate per row with bincount
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    hits = pc.is_in(
        pc.utf8_lower(flat), value_set=pa.array(sorted(_STOPWORDS), pa.string())
    ).to_numpy(zero_copy_only=False)
    n_stop_np = np.bincount(
        parents[hits], minlength=batch.num_rows
    ).astype(np.int64)
    n_stop = pc.if_else(empty, zero, pa.array(n_stop_np))

    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_chars": n_chars,
            "n_alpha": n_alpha,
            "n_digit": n_digit,
            "n_tokens": n_token,
            "n_stopwords": n_stop,
        }
    )


def char_run_stats(batch: pa.Table, id_col: str = "doc_id",
                   text_col: str = "text") -> pa.Table:
    """Character-run compression stats per document: number of
    single-character runs, longest run, and runs-per-char in exact ppm
    — the low-entropy / keyboard-mash spam signal BELOW the token level
    (``repetition_stats`` covers token/bigram repeats; "aaaaaaaa" is one
    token and invisible to it).  A clean page has run_ppm near 10^6
    (every char differs from its neighbor); padded/sledged spam
    collapses toward 0.

    Scale shape: pure zero-shuffle ``map_batches``.  Vectorized across
    the WHOLE batch: one codepoint array for the concatenated batch
    text (doc starts force run boundaries), one diff pass, and
    searchsorted/``maximum.at`` segment reductions — no Python loop
    over rows or characters.  Counts are codepoint-based, matching SQL
    ``length()``/``substring()`` semantics exactly."""
    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    lens = np.fromiter((len(t) for t in texts), np.int64, count=n)
    joined = "".join(texts)
    cp = np.frombuffer(joined.encode("utf-32-le"), np.uint32)
    ends = np.cumsum(lens)
    starts = ends - lens
    is_run_start = np.ones(len(cp), bool)
    if len(cp) > 1:
        is_run_start[1:] = cp[1:] != cp[:-1]
    is_run_start[starts[lens > 0]] = True  # a run never crosses a doc
    run_pos = np.nonzero(is_run_start)[0]
    n_runs = (
        np.searchsorted(run_pos, ends) - np.searchsorted(run_pos, starts)
    ).astype(np.int64)
    max_run = np.zeros(n, np.int64)
    if len(run_pos):
        doc_of_run = np.searchsorted(ends, run_pos, side="right")
        nxt = np.empty(len(run_pos), np.int64)
        nxt[:-1] = run_pos[1:]
        nxt[-1] = len(cp)
        run_len = np.minimum(nxt, ends[doc_of_run]) - run_pos
        np.maximum.at(max_run, doc_of_run, run_len)
    run_ppm = np.where(lens > 0, n_runs * 1_000_000 // np.maximum(lens, 1), 0)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_chars": pa.array(lens),
            "n_runs": pa.array(n_runs),
            "max_run": pa.array(max_run),
            "run_ppm": pa.array(run_ppm.astype(np.int64)),
        }
    )


def sentence_stats(batch: pa.Table, id_col: str = "doc_id",
                   text_col: str = "text") -> pa.Table:
    """Readability stats per document: sentence count (non-empty
    segments after an RE2 ``[.!?]+`` split, whitespace-trimmed), token
    count (pinned to ``token_counts``'s definition) and exact-ppm
    words-per-sentence — the classic words/sentence quality gate.
    Zero shuffle; two Arrow regex kernels + bincount per batch."""
    txt = batch.column(text_col)
    n = batch.num_rows
    segs = pc.split_pattern_regex(txt, r"[.!?]+")
    seg_trim = pc.replace_substring_regex(pc.list_flatten(segs), _TRIM_RE, "")
    nonempty = pc.not_equal(seg_trim, "").to_numpy(zero_copy_only=False)
    parents = pc.list_parent_indices(segs).to_numpy(zero_copy_only=False)
    n_sent = np.bincount(parents[nonempty], minlength=n).astype(np.int64)

    trimmed = _re2_trim(txt)
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    n_tok = (
        pc.list_value_length(toks).cast(pa.int64())
        .to_numpy(zero_copy_only=False).copy()
    )
    n_tok[pc.equal(trimmed, "").to_numpy(zero_copy_only=False)] = 0
    wps_ppm = np.where(
        n_sent > 0, n_tok * 1_000_000 // np.maximum(n_sent, 1), 0
    )
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_sentences": pa.array(n_sent),
            "n_tokens": pa.array(n_tok),
            "wps_ppm": pa.array(wps_ppm.astype(np.int64)),
        }
    )


def fingerprints(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Content fingerprints: md5 hex (exact, SQL-matchable) and a 64-bit
    rolling (Rabin-Karp style) hash over the token stream."""
    texts = batch.column(text_col).to_pylist()
    md5s = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
    rolls = np.empty(len(texts), np.uint64)
    B = np.uint64(1000003)
    MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
    for i, t in enumerate(texts):
        h = np.uint64(1469598103934665603)
        for w in t.split():
            wh = np.uint64(
                int.from_bytes(hashlib.blake2b(w.encode(), digest_size=8).digest(), "little")
            )
            h = ((h * B) & MASK) ^ wh
        rolls[i] = h
    return pa.table(
        {
            id_col: batch.column(id_col),
            "content_md5": pa.array(md5s, pa.string()),
            "rolling_hash": pa.array(rolls, pa.uint64()),
        }
    )


class LangId:
    """Heuristic language id: stopword-profile voting + script detection.

    Stateful stage (profiles compiled once per actor); emits
    ``pred_lang`` with "zh" for CJK-dominant text, else the profile with
    the most stopword hits ("und" = undetermined).

    Every rule is pinned to an exactly SQL-replicable definition so the
    driver can oracle-check the heuristic (see queries._lang_id_sql):
    sample = first 2000 CHARACTERS; tokens = RE2-``\\s`` whitespace
    split of the lowercased sample (ASCII whitespace — NOT Python
    ``\\w``, whose unicode word classes RE2 lacks); zh iff
    ``5 * cjk_chars > max(1, len(sample))`` (integer arithmetic, no
    float 0.2); ties pick the lexically smallest language (strict ``>``
    over the sorted profile names)."""

    def __init__(self):
        self.langs = sorted(_LANG_PROFILES)
        # one sorted Arrow value-set per profile, built once per actor
        self.profile_sets = {
            lang: pa.array(sorted(_LANG_PROFILES[lang]), pa.string())
            for lang in self.langs
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        # fully vectorized (the per-row/per-word Python loop measured 2 s
        # at sf0.1 vs ~0.5 s for this shape on the same column): slice
        # the 2000-codepoint sample, count CJK via one RE2 count, flatten
        # tokens once, one is_in + bincount per profile
        sample = pc.utf8_slice_codeunits(batch.column("text"), 0, 2000)
        slen = pc.utf8_length(sample).to_numpy(zero_copy_only=False)
        cjk = pc.count_substring_regex(
            sample, "[一-鿿]"
        ).to_numpy(zero_copy_only=False)
        zh = 5 * cjk > np.maximum(1, slen)

        toks = pc.split_pattern_regex(
            pc.utf8_lower(sample), r"[\t\n\f\r ]+"  # RE2 \s
        )
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        hits = np.zeros((batch.num_rows, len(self.langs)), np.int64)
        for j, lang in enumerate(self.langs):
            m = pc.is_in(
                flat, value_set=self.profile_sets[lang]
            ).to_numpy(zero_copy_only=False)
            hits[:, j] = np.bincount(parents[m], minlength=batch.num_rows)

        # argmax returns the FIRST max == the strict-> scan over sorted
        # langs (ties pick the lexically smallest); zero hits -> "und"
        best = hits.argmax(axis=1) if len(self.langs) else np.zeros(0, int)
        pred = np.asarray(self.langs, dtype=object)[best]
        pred = np.where(hits.max(axis=1, initial=0) > 0, pred, "und")
        pred = np.where(zh, "zh", pred)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pred_lang": pa.array(pred, pa.string()),
            }
        )


# PII patterns, applied in ORDER (email -> phone -> ip) on both the Ray
# side and the SQL oracle; counts are computed on the ORIGINAL text so
# they are order-independent.  Every pattern is plain RE2 (pyarrow and
# DuckDB both compile RE2, so the classes and \b agree on all input).
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("phone", r"\+[0-9]{7,15}", "<PHONE>"),
    ("ip", r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b", "<IP>"),
)


def pii_redact(batch: pa.Table, id_col: str = "doc_id",
               text_col: str = "text") -> pa.Table:
    """PII redaction for web-scale training text: replace emails,
    E.164-style phone numbers and IPv4 addresses with typed sentinel
    tokens and count each category.  Fully vectorized (one RE2 count +
    one RE2 replace per pattern, no Python per row); at 100 TB this is
    a pure streaming map with zero shuffle."""
    text = batch.column(text_col)
    cols: dict = {id_col: batch.column(id_col)}
    for name, pat, _ in PII_PATTERNS:
        cols[f"n_{name}"] = pc.count_substring_regex(text, pat).cast(pa.int64())
    red = text
    for _, pat, repl in PII_PATTERNS:
        red = pc.replace_substring_regex(red, pat, repl)
    cols["redacted"] = red
    return pa.table(cols)


def repetition_stats(batch: pa.Table, id_col: str = "doc_id",
                     text_col: str = "text") -> pa.Table:
    """Gopher-style repetition quality signals, as exact integers:
    token count, distinct-token count, bigram count and the count of
    the MOST FREQUENT bigram per document (boilerplate / spam pages
    have high ``top_bigram_n / n_bigrams``).  Downstream filters divide;
    integers keep the oracle comparison exact.

    Vectorized: flatten the token lists once, factorize to int codes,
    then numpy masks + pandas (C-level) groupbys — no Python per row.
    Tokenization pinned to ``token_counts``'s SQL definition,
    lowercased."""
    trimmed = _re2_trim(batch.column(text_col))
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    n = batch.num_rows
    empty = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
    flat = pc.utf8_lower(pc.list_flatten(toks))
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    codes, _ = pd.factorize(flat.to_pandas(), sort=False)

    n_tok = np.bincount(parents, minlength=n).astype(np.int64)
    n_tok[empty] = 0

    df = pd.DataFrame({"doc": parents, "code": codes})
    nd = df.groupby("doc", sort=False)["code"].nunique()
    n_distinct = np.zeros(n, np.int64)
    n_distinct[nd.index.to_numpy()] = nd.to_numpy()
    n_distinct[empty] = 0

    # bigrams = consecutive flat positions with the same parent row
    same = parents[1:] == parents[:-1]
    bg_doc = parents[:-1][same]
    n_bigram = np.bincount(bg_doc, minlength=n).astype(np.int64)
    n_bigram[empty] = 0
    top_bigram = np.zeros(n, np.int64)
    if len(bg_doc):
        bdf = pd.DataFrame(
            {"doc": bg_doc, "a": codes[:-1][same], "b": codes[1:][same]}
        )
        top = (
            bdf.groupby(["doc", "a", "b"], sort=False)
            .size()
            .groupby("doc", sort=False)
            .max()
        )
        top_bigram[top.index.to_numpy()] = top.to_numpy()
        top_bigram[empty] = 0
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_tokens": pa.array(n_tok),
            "n_distinct_tokens": pa.array(n_distinct),
            "n_bigrams": pa.array(n_bigram),
            "top_bigram_n": pa.array(top_bigram),
        }
    )


def term_doc_frequency_partial(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-batch document-frequency partial: (term, df) counting each
    term ONCE per document — the combinable first phase of a corpus DF
    table / TF-IDF vocabulary / inverted-index build.  Tokenization is
    pinned to ``token_counts``'s SQL-matchable definition (RE2 ``\\s+``
    split of RE2-trimmed text), lowercased."""
    trimmed = _re2_trim(batch.column(text_col))
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    flat = pc.utf8_lower(pc.list_flatten(toks))
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    nonempty = pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
    df = pd.DataFrame(
        {"doc": parents, "term": flat.to_pandas()}
    )
    df = df[nonempty[df["doc"].to_numpy()]]
    per_doc = df.drop_duplicates()
    counts = per_doc.groupby("term", sort=False).size()
    return pa.table(
        {
            "term": pa.array(counts.index, pa.string()),
            "df": pa.array(counts.to_numpy(np.int64), pa.int64()),
        }
    )


def grouped_term_counts_partial(batch: pa.Table, group_col: str = "lang",
                                text_col: str = "text") -> pa.Table:
    """Per-batch (group, term, n) occurrence-count partial — the
    combinable first phase of per-group heavy hitters (corpus
    vocabulary reports, per-language stopword discovery).  Unlike
    ``term_doc_frequency_partial`` this counts every OCCURRENCE, not
    once per document.  Tokenization pinned to ``token_counts``'s SQL
    definition (RE2 ``\\s+`` split of RE2-trimmed text), lowercased."""
    trimmed = _re2_trim(batch.column(text_col))
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    flat = pc.utf8_lower(pc.list_flatten(toks))
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    nonempty = pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
    groups = batch.column(group_col).to_pandas().to_numpy()
    df = pd.DataFrame({"g": groups[parents], "term": flat.to_pandas()})
    df = df[nonempty[parents]]
    counts = df.groupby(["g", "term"], sort=False).size().reset_index(name="n")
    return pa.table(
        {
            group_col: pa.array(counts["g"], pa.string()),
            "term": pa.array(counts["term"], pa.string()),
            "n": pa.array(counts["n"].to_numpy(np.int64), pa.int64()),
        }
    )


def top_terms_per_group(ds, group_col: str = "lang", text_col: str = "text",
                        k: int = 10):
    """Per-group top-k most frequent terms (heavy hitters per group),
    ties broken by term asc — deterministic and SQL-replicable
    (``row_number() OVER (PARTITION BY g ORDER BY n DESC, term)``).

    Movement: vectorized per-batch (group, term, n) partials bound each
    task's output by its batch vocabulary; one hash-bucket shuffle on
    (group, term) sums exact counts with a whole-bucket vectorized
    reduce; ``grouped_top_k`` then bounds the second shuffle at
    tasks × groups × k.  Raw tokens never cross the wire."""
    from gliner_cpp_ray.stages.joins import keyed_exchange
    from gliner_cpp_ray.stages.skew import grouped_top_k

    def reduce_bucket(bdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            bdf.groupby([group_col, "term"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return out

    counts = keyed_exchange(
        ds.map_batches(
            lambda t: grouped_term_counts_partial(t, group_col, text_col),
            batch_format="pyarrow",
        ),
        [group_col, "term"], reduce_bucket,
    )
    return grouped_top_k(counts, group_col, "n", "term", k)


def term_doc_frequency(ds, text_col: str = "text", top_k: int = 50):
    """Corpus document-frequency table, top_k by (df desc, term asc).

    Shape: vectorized per-batch partials (one row per distinct term per
    batch — vocabulary-bounded), one groupby-sum shuffle of the partial
    table, and a sort of the vocabulary-sized result.  The raw token
    stream never crosses the wire."""
    from ray.data.aggregate import Sum

    partial = ds.map_batches(
        lambda t: term_doc_frequency_partial(t, text_col),
        batch_format="pyarrow",
    )
    agg = partial.groupby("term").aggregate(Sum("df", alias_name="df"))
    return agg.sort(["df", "term"], descending=[True, False]).limit(top_k)


# --------------------------------------------------------- collocations

PMI_SCALE = 1_000_000


def _colloc_partial(batch: pa.Table, text_col: str) -> pa.Table:
    """Per-batch unigram + adjacent-bigram count partials in ONE
    tokenize pass: rows (kind 0=unigram/1=bigram, w1, w2, n)."""
    from gliner_cpp_ray.stages.retrieval import _tokens

    flat, parents = _tokens(batch, text_col)
    if not len(flat):
        return pa.table(
            {
                "kind": pa.array([], pa.int8()),
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    toks = flat.to_pandas().to_numpy()
    uc = pd.Series(toks).value_counts(sort=False)
    adj = parents[1:] == parents[:-1]  # adjacency stays within one doc
    b1 = toks[:-1][adj]
    b2 = toks[1:][adj]
    if len(b1):
        bc = (
            pd.DataFrame({"w1": b1, "w2": b2})
            .groupby(["w1", "w2"], sort=False)
            .size()
            .reset_index(name="n")
        )
    else:
        bc = pd.DataFrame({"w1": [], "w2": [], "n": []})
    kind = np.r_[np.zeros(len(uc), np.int8), np.ones(len(bc), np.int8)]
    return pa.table(
        {
            "kind": pa.array(kind, pa.int8()),
            "w1": pa.array(
                np.r_[uc.index.to_numpy(), bc["w1"].to_numpy()], pa.string()
            ),
            "w2": pa.array(
                np.r_[np.full(len(uc), "", object), bc["w2"].to_numpy()],
                pa.string(),
            ),
            "n": pa.array(
                np.r_[uc.to_numpy(), bc["n"].to_numpy()].astype("int64"),
                pa.int64(),
            ),
        }
    )


def pmi_collocations(ds, k: int = 20, min_count: int = 5,
                     text_col: str = "text"):
    """Top-k bigram collocations ranked by PMI, integer-exact.

    PMI = log(p(ab)/(p(a)p(b))) is monotone in ``n_ab·N/(n_a·n_b)``
    for a fixed corpus (N, total-bigram constants cancel in the
    ranking), so scores are the int64 floor
    ``(PMI_SCALE·n_ab·N) // (n_a·n_b)`` — no transcendental, SQL
    replicates bit-for-bit.

    Shape: one tokenize pass emits combined unigram+bigram per-batch
    partials → ONE groupby-sum shuffle (combiner-reduced) → min-support
    filter (n_ab >= min_count) → constituent unigram counts attached
    via TWO bucketed hash joins (never a vocabulary broadcast — web
    vocabularies are not driver-sized) → per-batch top-k combiner +
    final rank.  int64 headroom: ``PMI_SCALE·n_ab·N < 2^63`` — guarded
    per batch; lower PMI_SCALE for corpora past ~1e5 · 1e8 tokens."""
    import pyarrow.compute as pc

    from gliner_cpp_ray.stages.joins import bucketed_hash_join, keyed_exchange
    from gliner_cpp_ray.stages.retrieval import _ranked_topk

    def reduce_counts(g):
        return g.groupby(["kind", "w1", "w2"], sort=False,
                         as_index=False)["n"].sum()

    # bucket-hash + whole-bucket vectorized reduce instead of a
    # three-string-column groupby aggregate (measured 2.7x at sf0.1)
    counts = keyed_exchange(
        ds.map_batches(lambda t: _colloc_partial(t, text_col),
                       batch_format="pyarrow"),
        ["kind", "w1", "w2"], reduce_counts,
    ).materialize()  # consumed three times below (uni, N, bigrams)
    uni = counts.map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), 0)).select(["w1", "n"]),
        batch_format="pyarrow",
    )
    n_uni = uni.sum("n") or 0
    if n_uni == 0:
        return _ranked_topk(
            counts.map_batches(
                lambda t: pa.table(
                    {"w1": pa.array([], pa.string()),
                     "w2": pa.array([], pa.string()),
                     "n_ab": pa.array([], pa.int64()),
                     "score_micro": pa.array([], pa.int64())}
                ),
                batch_format="pyarrow",
            ).limit(0),
            k,
        )
    big = counts.map_batches(
        lambda t: t.filter(
            pc.and_(pc.equal(t.column("kind"), 1),
                    pc.greater_equal(t.column("n"), min_count))
        ).select(["w1", "w2", "n"]),
        batch_format="pyarrow",
    )
    j1 = bucketed_hash_join(
        big,
        uni.map_batches(lambda t: t.rename_columns(["w1", "n_a"]),
                        batch_format="pyarrow"),
        on="w1",
    )
    j2 = bucketed_hash_join(
        j1,
        uni.map_batches(lambda t: t.rename_columns(["w2", "n_b"]),
                        batch_format="pyarrow"),
        on="w2",
    )

    def score(t: pa.Table) -> pa.Table:
        n_ab = t.column("n").to_numpy(zero_copy_only=False).astype("int64")
        n_a = t.column("n_a").to_numpy(zero_copy_only=False).astype("int64")
        n_b = t.column("n_b").to_numpy(zero_copy_only=False).astype("int64")
        if len(n_ab) and PMI_SCALE * int(n_ab.max()) * int(n_uni) >= 2 ** 63:
            raise OverflowError(
                "PMI int64 overflow — lower PMI_SCALE for this corpus"
            )
        s = (PMI_SCALE * n_ab * int(n_uni)) // (n_a * n_b)
        return pa.table(
            {
                "w1": t.column("w1"),
                "w2": t.column("w2"),
                "n_ab": pa.array(n_ab, pa.int64()),
                "score_micro": pa.array(s, pa.int64()),
            }
        )

    scored = j2.map_batches(score, batch_format="pyarrow")

    def combiner(t: pa.Table) -> pa.Table:
        df = (
            t.to_pandas()
            .sort_values(["score_micro", "w1", "w2"],
                         ascending=[False, True, True])
            .head(k)
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def final_rank(t: pa.Table) -> pa.Table:
        df = (
            t.to_pandas()
            .sort_values(["score_micro", "w1", "w2"],
                         ascending=[False, True, True])
            .head(k)
            .reset_index(drop=True)
        )
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        scored.map_batches(combiner, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_rank, batch_format="pyarrow")
    )


def doc_term_occurrences_partial(batch: pa.Table, id_col: str = "doc_id",
                                 text_col: str = "text") -> pa.Table:
    """Per-batch (doc_id, term, n) occurrence combine — the shared
    first phase of per-document × corpus-vocabulary joins (token
    rarity, pointwise-MI features).  Tokenization pinned to
    ``token_counts``'s SQL-matchable definition (RE2 ``\\s+`` split of
    RE2-trimmed text), lowercased.  Raw token occurrences collapse to
    distinct (doc, term) rows before anything crosses the wire."""
    trimmed = _re2_trim(batch.column(text_col))
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    flat = pc.utf8_lower(pc.list_flatten(toks))
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    nonempty = pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    df = pd.DataFrame({"doc_id": ids[parents], "term": flat.to_pandas()})
    df = df[nonempty[parents]]
    counts = (
        df.groupby(["doc_id", "term"], sort=False).size().reset_index(name="n")
    )
    return pa.table(
        {
            "doc_id": pa.array(counts["doc_id"].to_numpy(np.int64), pa.int64()),
            "term": pa.array(counts["term"], pa.string()),
            "n": pa.array(counts["n"].to_numpy(np.int64), pa.int64()),
        }
    )


def token_rarity_hist(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Per-document token-RARITY histogram — the unigram-LM quality
    signal: each token is bucketed by the magnitude of its CORPUS-WIDE
    occurrence count (bucket = floor(log2(global_count)), exact via the
    float64 exponent — ``np.frexp``, no float log), and each document
    reports how many of its tokens fall in each rarity bucket.  A
    boilerplate page piles into the high buckets; gibberish/OCR noise
    piles into bucket 0 (hapax legomena).

    Returns Dataset (doc_id, bucket, n_tokens).

    Movement (everything corpus-shaped stays distributed): one pass
    emits per-batch (doc, term, n) combines, materialized ONCE and
    consumed twice — (a) a term-keyed group-sum builds the vocabulary
    count table (vocabulary-bounded, stays a Dataset), (b) a bucketed
    string-key join maps each distinct (doc, term) row to its rarity
    bucket, then a (doc, bucket) group-sum folds the histogram.  No
    driver-side vocabulary, no broadcast — the join moves distinct
    (doc, term) rows once, the same shape as the contamination gram
    join."""
    from gliner_cpp_ray.stages.joins import bucketed_group_agg, bucketed_hash_join

    occ = ds.map_batches(
        lambda t: doc_term_occurrences_partial(t, id_col, text_col),
        batch_format="pyarrow",
    ).materialize()

    vocab = bucketed_group_agg(
        occ.map_batches(lambda t: t.select(["term", "n"]),
                        batch_format="pyarrow"),
        "term", "sum", val_col="n", out_col="c",
    )

    def to_bucket(t: pa.Table) -> pa.Table:
        c = t.column("c").to_numpy(zero_copy_only=False)
        # exact floor(log2(c)) for 1 <= c < 2^53 via the IEEE exponent
        # (c = m * 2^e, 0.5 <= m < 1  =>  floor(log2(c)) = e - 1); a
        # single token would need > 9e15 occurrences to break the bound
        # (a 100 TB corpus holds ~2e13 tokens TOTAL)
        bucket = (np.frexp(c.astype(np.float64))[1] - 1).astype(np.int64)
        return pa.table({"term": t.column("term"), "bucket": bucket})

    rarity = vocab.map_batches(to_bucket, batch_format="pyarrow")

    joined = bucketed_hash_join(
        occ, rarity, on="term",
        left_schema=pa.schema(
            [("doc_id", pa.int64()), ("term", pa.string()), ("n", pa.int64())]
        ),
        right_schema=pa.schema(
            [("term", pa.string()), ("bucket", pa.int64())]
        ),
    )
    return bucketed_group_agg(
        joined.map_batches(
            lambda t: t.select(["doc_id", "bucket", "n"]),
            batch_format="pyarrow",
        ),
        ["doc_id", "bucket"], "sum", val_col="n", out_col="n_tokens",
    )
