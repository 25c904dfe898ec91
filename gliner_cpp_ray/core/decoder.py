"""Span / token decoding + greedy non-overlap selection.

Transcribes the reference decoder semantics exactly (the reference's
``src/decoder.cpp``), as columns: each decoder yields its candidates as
one ``SpanColumns`` (doc, byte start, byte end, entity, prob) and
``greedy_select`` picks the kept rows of every doc at once.  No ``Span``
object exists on that path.  ``GlinerModel.inference`` runs
``decode_candidates`` (the one place that picks the decoder for the
model type) and ``spans_per_doc``; ``decode_span_batch`` and
``decode_token_batch`` are the same two steps for one decoder each, the
``Span``-list entry points the parity tests and goldens call.  The NER
stage builds its mention table from the columns directly.

The span decoder walks only the candidates that can clear the
threshold: one scan of the flat float32 logits against a cutoff strictly
below ``logit(threshold)`` (see ``_logit_cutoff``), then the unchanged
float32 test ``sigmoid(x) >= threshold`` on the survivors.  The cutoff
is conservative — every logit whose float32 sigmoid clears the threshold
lies above it — so the re-test yields exactly the dense test's candidate
set.  ``np.flatnonzero`` returns flat indices in ascending order, which
is the reference's linear walk over the flat logit vector
(decoder.cpp:96-101).  The order matters: the greedy pass is sequential
and order-sensitive (decoder.cpp:31-61), NOT a probability-sorted
textbook greedy.

Offsets are UTF-8 **byte** offsets; span text is a byte slice of the
encoded text (C++ ``substr`` on a std::string, decoder.cpp:112).  Word
tokens always start/end on codepoint boundaries, so the slice is always
valid UTF-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gliner_cpp_ray.config import SPAN_LEVEL
from gliner_cpp_ray.core.processor import EncodedBatch


@dataclass(slots=True)
class Span:
    """Output entity mention (reference ``gliner::Span``,
    /root/reference/include/GLiNER/gliner_structs.hpp:64-70)."""

    start: int  # byte offset, inclusive
    end: int  # byte offset, exclusive
    text: str
    label: str
    prob: float


def sigmoid(x):
    """decoder.cpp:7-9 (vectorized)."""
    return 1.0 / (1.0 + np.exp(-x))


def _greedy_keep(
    starts: list[int],
    ends: list[int],
    probs: list[float],
    flat_ner: bool,
    multi_label: bool,
) -> list[int]:
    """Indices kept by the sequential left-to-right pass over
    generation-ordered spans (decoder.cpp:31-61).  On conflict the
    higher-prob span survives as the running candidate; on no-conflict
    the running candidate is emitted.  The conflict test is
    ``hasOverlapping`` (decoder.cpp:16-24), or'd with ``isNested``
    (decoder.cpp:11-13) when ``flat_ner`` is false."""
    if not starts:
        return []
    keep: list[int] = []
    prev = 0
    ps, pe, pp = starts[0], ends[0], probs[0]
    for nxt in range(1, len(starts)):
        ns, ne = starts[nxt], ends[nxt]
        if ps == ns and pe == ne:
            conflict = not multi_label
        else:
            conflict = not (ps > ne or ns > pe)
        if not conflict and not flat_ner:
            conflict = (ps <= ns and ne <= pe) or (ns <= ps and pe <= ne)
        if not conflict:
            keep.append(prev)
            prev, ps, pe, pp = nxt, ns, ne, probs[nxt]
        elif pp < probs[nxt]:
            prev, ps, pe, pp = nxt, ns, ne, probs[nxt]
    keep.append(prev)
    return keep


def greedy_search(
    spans: list[Span], flat_ner: bool = True, multi_label: bool = False
) -> list[Span]:
    """``_greedy_keep`` over ``Span`` objects."""
    keep = _greedy_keep(
        [s.start for s in spans],
        [s.end for s in spans],
        [s.prob for s in spans],
        flat_ner,
        multi_label,
    )
    return [spans[k] for k in keep]


def _logit_cutoff(threshold: float) -> np.float32:
    """A float32 cutoff ``c`` with ``x >= c`` for every float32 ``x``
    whose float32 ``sigmoid(x) >= threshold``.

    The float32 sigmoid is within a few ulps (relative error < 1e-6) of
    the true one, and the threshold may be rounded to float32 (another
    2**-24).  Lowering the threshold by a relative 2**-12 before taking
    the logit therefore covers every rounding, with room to spare for
    rounding the cutoff itself to float32.  Above ``1 - 2**-12`` the
    threshold is capped (float32 sigmoid saturates to 1.0 near
    x = 16.6, so ``threshold >= 1`` still has survivors); below 1e-30
    (including ``threshold <= 0``, where every non-NaN cell survives,
    -inf included) the cutoff is -inf.
    """
    if not threshold >= 1e-30:
        return np.float32(-np.inf)
    p = min(float(threshold), 1.0 - 2.0**-12) * (1.0 - 2.0**-12)
    cut = math.log(p / (1.0 - p))
    c32 = np.float32(cut)
    return np.nextafter(c32, np.float32(-np.inf)) if c32 > cut else c32


@dataclass(slots=True)
class SpanColumns:
    """Spans as columns, one row per span: grouped by doc, and within a
    doc in generation order, the order the greedy pass reads."""

    doc: np.ndarray  # int64 doc index within the batch
    start: np.ndarray  # int64 byte offset, inclusive
    end: np.ndarray  # int64 byte offset, exclusive
    label: np.ndarray  # int64 entity index
    prob: np.ndarray  # float32 (span mode) or float64 (token mode)

    @classmethod
    def empty(cls, prob_dtype) -> SpanColumns:
        z = np.zeros(0, np.int64)
        return cls(z, z, z, z, np.zeros(0, prob_dtype))

    @classmethod
    def concat(cls, parts: list[SpanColumns]) -> SpanColumns:
        return cls(*(np.concatenate(c) for c in zip(*map(_fields, parts))))

    def take(self, rows: np.ndarray) -> SpanColumns:
        return SpanColumns(*(c[rows] for c in _fields(self)))


def _fields(c: SpanColumns) -> tuple:
    return c.doc, c.start, c.end, c.label, c.prob


def greedy_select(spans: SpanColumns, flat_ner: bool, multi_label: bool) -> np.ndarray:
    """Rows ``_greedy_keep`` keeps, per doc, ascending.

    The conflict test runs on every consecutive pair of a doc at once.
    A doc with no conflicting consecutive pair keeps every span with no
    loop: the running candidate is then always the previous span, so
    each one is emitted in turn.  Only docs with a conflict run the
    sequential pass, which can drop spans that conflict with no
    neighbour (``[0, 10]`` beats ``[2, 3]`` and then ``[5, 6]``)."""
    doc, start, end = spans.doc, spans.start, spans.end
    n = len(doc)
    ps, pe, ns, ne = start[:-1], end[:-1], start[1:], end[1:]
    conflict = (ps <= ne) & (ns <= pe)  # not (ps > ne or ns > pe)
    if multi_label:  # identical spans conflict only without multi_label
        conflict &= (ps != ns) | (pe != ne)
    if not flat_ner:
        conflict |= ((ps <= ns) & (ne <= pe)) | ((ns <= ps) & (pe <= ne))
    conflict &= doc[1:] == doc[:-1]
    pairs = np.flatnonzero(conflict)
    if not len(pairs):
        return np.arange(n)
    keep = np.ones(n, dtype=bool)
    run_lo = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
    run_hi = np.r_[run_lo[1:], n]
    runs = np.unique(np.searchsorted(run_lo, pairs, side="right") - 1)
    for lo, hi in zip(run_lo[runs].tolist(), run_hi[runs].tolist()):
        keep[lo:hi] = False
        kept = _greedy_keep(
            start[lo:hi].tolist(), end[lo:hi].tolist(), spans.prob[lo:hi].tolist(),
            flat_ner, multi_label,
        )
        keep[np.add(kept, lo)] = True
    return np.flatnonzero(keep)


def span_candidates(
    batch: EncodedBatch, logits: np.ndarray, n_entities: int, threshold: float
) -> SpanColumns:
    """SpanDecoder::decode's candidates (decoder.cpp:76-107), before the
    greedy pass.

    Flat logits have implicit row-major layout
    ``[batch, start_word, width, entity]``; a candidate survives iff
    ``sigmoid(logit) >= threshold`` and its end word index
    ``start + width`` is within the document's real token count (padding
    rows are thereby dropped, decoder.cpp:104-107).
    """
    B = batch.batch_size
    W = batch.num_words
    K = batch.width()  # = max_width for span batches
    E = n_entities
    if B == 0 or W == 0 or E == 0:
        return SpanColumns.empty(np.float32)
    flat = np.asarray(logits, dtype=np.float32).reshape(B * W * K * E)
    idx = np.flatnonzero(flat >= _logit_cutoff(threshold))
    probs = sigmoid(flat[idx])
    over = probs >= threshold
    idx, probs = idx[over], probs[over]

    rest, e = np.divmod(idx, E)
    rest, w = np.divmod(rest, K)
    b, s = np.divmod(rest, W)
    ntoks = np.fromiter((len(t) for t in batch.token_texts), np.int64, count=B)
    valid = s + w < ntoks[b]  # end < ntok => start < ntok (width >= 0)
    b, s, w, e, probs = b[valid], s[valid], w[valid], e[valid], probs[valid]

    # byte offsets through the batch's concatenated token arrays
    tok_base = np.zeros(B, np.int64)
    np.cumsum(ntoks[:-1], out=tok_base[1:])
    first = tok_base[b] + s
    start = np.concatenate(batch.token_starts)[first]
    end = np.concatenate(batch.token_ends)[first + w]
    return SpanColumns(b, start, end, e, probs)


def token_candidates(
    batch: EncodedBatch,
    logits: np.ndarray,
    n_entities: int,
    threshold: float,
    multi_label: bool,
) -> SpanColumns:
    """TokenDecoder::decode's emissions (decoder.cpp:123-176), before the
    greedy pass.

    Logits are three stacked row-major blocks of shape
    ``[batch, word, entity]``: start-, end-, inside-scores.  For each
    over-threshold start, end positions scan forward with the reference's
    exact continue/break asymmetry (decoder.cpp:160-165): an
    under-threshold END score skips the position (``continue``) *without*
    consulting the inside score; an under-threshold INSIDE score ends the
    scan (``break``).  Emitted prob = running mean of the inside scores of
    positions emitted so far.

    Divergence guard: the reference indexes ``tokens[b][...]`` without a
    bounds check in this path (C++ UB on padded positions; real models
    score padding under threshold).  We additionally skip out-of-range
    start positions and stop the scan at the document's token count —
    identical output for any model that scores padding below threshold.
    """
    B = batch.batch_size
    W = batch.num_words
    E = n_entities
    if B == 0 or W == 0 or E == 0:
        return SpanColumns.empty(np.float64)
    probs = sigmoid(np.asarray(logits, dtype=np.float32).reshape(3, B, W, E))
    start_p, end_p, inside_p = probs[0], probs[1], probs[2]

    # The scan from a start position only *reads* positions whose END
    # score clears the threshold (an under-threshold end `continue`s
    # without consulting the inside score) and stops at the first such
    # position whose INSIDE score fails.  So per (doc, entity) column we
    # precompute: the end-qualified position list `idxs`, their inside
    # values, and the indices within `idxs` where inside fails
    # (`bad_js`).  A candidate start s then emits exactly
    # idxs[j0:jb] where j0 = first idx >= s and jb = first bad >= j0 —
    # O(log + emitted) per candidate instead of O(W), with the running
    # inside-mean reproduced by an in-order cumsum over the same float64
    # additions the sequential loop performs.
    # A candidate's emissions form a *chain*: spans sharing one byte
    # start with strictly increasing ends.  Without multi_label a chain
    # reduces to its first maximum-prob element (identical spans never
    # conflict under multi_label, which breaks the collapse): consecutive
    # chain elements always conflict (same start), and because byte
    # starts are nondecreasing in candidate order, the running candidate
    # conflicts with a later chain iff ``chain_start <= running.end`` —
    # uniformly for every element, in both flat and nested modes (the
    # extra nested branches are subsumed).  So the greedy pass over the
    # reduced chains keeps exactly what it keeps over the (worst-case
    # quadratic) emission list the reference walks.
    fold = not multi_label
    ntoks = [len(tt) for tt in batch.token_texts]
    helpers: dict[tuple[int, int], tuple] = {}
    cols: list[list] = [[], [], [], [], []]  # doc, start, end, label, prob
    for b, s, e in np.argwhere(start_p >= threshold).tolist():  # start_id order
        ntok = ntoks[b]
        if s >= ntok:
            continue  # guard (see docstring)
        h = helpers.get((b, e))
        if h is None:
            stop = min(W, ntok)  # reference scans to W; guard caps at ntok
            idxs = np.flatnonzero(end_p[b, :stop, e] >= threshold)
            ins_vals = inside_p[b, idxs, e].astype(np.float64)
            bad_js = np.flatnonzero(ins_vals < threshold)
            helpers[(b, e)] = h = (idxs, ins_vals, bad_js)
        idxs, ins_vals, bad_js = h
        j0 = int(np.searchsorted(idxs, s))
        if j0 >= len(idxs):
            continue
        k = int(np.searchsorted(bad_js, j0))
        jb = int(bad_js[k]) if k < len(bad_js) else len(idxs)
        if jb <= j0:
            continue
        ps = np.cumsum(ins_vals[j0:jb])
        ps /= np.arange(1, jb - j0 + 1, dtype=np.float64)
        ends = batch.token_ends[b][idxs[j0:jb]]
        if fold:
            kmax = int(np.argmax(ps))  # first-wins: greedy's strict < compare
            ps, ends = ps[kmax : kmax + 1], ends[kmax : kmax + 1]
        m = len(ps)
        cols[0].append(np.full(m, b, np.int64))
        cols[1].append(np.full(m, batch.token_starts[b][s], np.int64))
        cols[2].append(ends)
        cols[3].append(np.full(m, e, np.int64))
        cols[4].append(ps)
    if not cols[0]:
        return SpanColumns.empty(np.float64)
    return SpanColumns(*(np.concatenate(c) for c in cols))


def spans_per_doc(
    spans: SpanColumns,
    batch_size: int,
    texts: list[str],
    entities: list[str],
    flat_ner: bool,
    multi_label: bool,
) -> list[list[Span]]:
    """The greedy pass, then one ``Span`` per kept row, per doc."""
    kept = spans.take(greedy_select(spans, flat_ner, multi_label))
    results: list[list[Span]] = [[] for _ in range(batch_size)]
    encoded: dict[int, bytes] = {}
    for d, si, ei, e, p in zip(*(c.tolist() for c in _fields(kept))):
        tb = encoded.get(d)
        if tb is None:
            encoded[d] = tb = texts[d].encode("utf-8")
        results[d].append(Span(si, ei, tb[si:ei].decode("utf-8"), entities[e], p))
    return results


def decode_span_batch(
    batch: EncodedBatch,
    texts: list[str],
    entities: list[str],
    logits: np.ndarray,
    flat_ner: bool = True,
    threshold: float = 0.5,
    multi_label: bool = False,
) -> list[list[Span]]:
    """SpanDecoder::decode (decoder.cpp:76-121): ``span_candidates`` and
    the greedy pass, as ``Span`` lists per doc."""
    spans = span_candidates(batch, logits, len(entities), threshold)
    return spans_per_doc(spans, batch.batch_size, texts, entities, flat_ner, multi_label)


def decode_token_batch(
    batch: EncodedBatch,
    texts: list[str],
    entities: list[str],
    logits: np.ndarray,
    flat_ner: bool = True,
    threshold: float = 0.5,
    multi_label: bool = False,
) -> list[list[Span]]:
    """TokenDecoder::decode (decoder.cpp:123-181): ``token_candidates``
    and the greedy pass, as ``Span`` lists per doc."""
    spans = token_candidates(batch, logits, len(entities), threshold, multi_label)
    return spans_per_doc(spans, batch.batch_size, texts, entities, flat_ner, multi_label)


def decode_candidates(
    batch: EncodedBatch,
    logits: np.ndarray,
    n_entities: int,
    threshold: float,
    multi_label: bool,
) -> SpanColumns:
    """The batch's candidates in its model type's decoder, before the
    greedy pass (``greedy_select``)."""
    if batch.model_type == SPAN_LEVEL:
        return span_candidates(batch, logits, n_entities, threshold)
    return token_candidates(batch, logits, n_entities, threshold, multi_label)
