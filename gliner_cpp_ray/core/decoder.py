"""Span / token decoding + greedy non-overlap selection.

Transcribes the reference decoder semantics exactly (the reference's
``src/decoder.cpp``).  The span decoder walks only the
candidates that can clear the threshold: one scan of the flat float32
logits against a cutoff strictly below ``logit(threshold)`` (see
``_logit_cutoff``), then the unchanged float32 test
``sigmoid(x) >= threshold`` on the survivors.  The cutoff is
conservative — every logit whose float32 sigmoid clears the threshold
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


def decode_span_batch(
    batch: EncodedBatch,
    texts: list[str],
    entities: list[str],
    logits: np.ndarray,
    flat_ner: bool = True,
    threshold: float = 0.5,
    multi_label: bool = False,
) -> list[list[Span]]:
    """SpanDecoder::decode (decoder.cpp:76-121).

    Flat logits have implicit row-major layout
    ``[batch, start_word, width, entity]``; a candidate survives iff
    ``sigmoid(logit) >= threshold`` and its end word index
    ``start + width`` is within the document's real token count (padding
    rows are thereby dropped, decoder.cpp:104-107).
    """
    B = batch.batch_size
    W = batch.num_words
    K = batch.width()  # = max_width for span batches
    E = len(entities)
    if B == 0 or W == 0 or E == 0:
        return [[] for _ in range(B)]
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
    starts = np.concatenate(batch.token_starts)[first].tolist()
    ends = np.concatenate(batch.token_ends)[first + w].tolist()
    labels = e.tolist()
    plist = probs.tolist()
    bounds = np.searchsorted(b, np.arange(B + 1)).tolist()

    results: list[list[Span]] = []
    for d in range(B):
        lo, hi = bounds[d], bounds[d + 1]
        if lo == hi:
            results.append([])
            continue
        keep = _greedy_keep(
            starts[lo:hi], ends[lo:hi], plist[lo:hi], flat_ner, multi_label
        )
        tb = texts[d].encode("utf-8")
        spans: list[Span] = []
        for k in keep:
            k += lo
            si, ei = starts[k], ends[k]
            spans.append(
                Span(si, ei, tb[si:ei].decode("utf-8"), entities[labels[k]], plist[k])
            )
        results.append(spans)
    return results


def decode_token_batch(
    batch: EncodedBatch,
    texts: list[str],
    entities: list[str],
    logits: np.ndarray,
    flat_ner: bool = True,
    threshold: float = 0.5,
    multi_label: bool = False,
) -> list[list[Span]]:
    """TokenDecoder::decode (decoder.cpp:123-181).

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
    E = len(entities)
    if B == 0 or W == 0 or E == 0:
        return [[] for _ in range(B)]
    probs = sigmoid(np.asarray(logits, dtype=np.float32).reshape(3, B, W, E))
    start_p, end_p, inside_p = probs[0], probs[1], probs[2]

    results: list[list[Span]] = [[] for _ in range(B)]
    cand = np.argwhere(start_p >= threshold)  # (b, s, e) row-major = start_id order
    if not cand.size:
        return results
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
    # start with strictly increasing ends.  Under the greedy pass this
    # structure collapses (multi_label=False only — identical spans
    # never conflict under multi_label, breaking the collapse at chain
    # boundaries): consecutive chain elements always conflict (same
    # start), so a chain reduces to its first maximum-prob element; and
    # because byte starts are nondecreasing in candidate order, the
    # running candidate `prev` conflicts with a later chain iff
    # ``chain_start <= prev.end`` — uniformly for every element, in both
    # flat and nested modes (the extra nested branches are subsumed:
    # prev.start <= chain_start always holds).  So for multi_label=False
    # we fold chains directly into the final output without
    # materializing the (worst-case quadratic) emission list the
    # reference walks; output is element-identical.
    fold = not multi_label
    ntoks = [len(tt) for tt in batch.token_texts]
    tbs: dict[int, bytes] = {}
    helpers: dict[tuple[int, int], tuple] = {}
    prevs: list[tuple | None] = [None] * B  # per-doc running candidate
    for b, s, e in cand:
        b, s, e = int(b), int(s), int(e)
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
        si = int(batch.token_starts[b][s])
        ps = np.cumsum(ins_vals[j0:jb])
        ps /= np.arange(1, jb - j0 + 1, dtype=np.float64)
        tends = batch.token_ends[b]
        if fold:
            # first-wins chain max (greedy's strict-> running compare)
            kmax = int(np.argmax(ps))
            p = float(ps[kmax])
            ei = int(tends[idxs[j0 + kmax]])
            prev = prevs[b]
            if prev is None:
                prevs[b] = (si, ei, e, p)
            elif si <= prev[1]:  # conflicts with every chain element
                if p > prev[3]:
                    prevs[b] = (si, ei, e, p)
            else:
                results[b].append(prev)
                prevs[b] = (si, ei, e, p)
            continue
        tb = tbs.get(b)
        if tb is None:
            tbs[b] = tb = texts[b].encode("utf-8")
        label = entities[e]
        spans_b = results[b]
        for off, j in enumerate(range(j0, jb)):
            ei = int(tends[idxs[j]])
            spans_b.append(
                Span(si, ei, tb[si:ei].decode("utf-8"), label, float(ps[off]))
            )
    if not fold:
        return [greedy_search(sp, flat_ner, multi_label) for sp in results]
    out: list[list[Span]] = []
    for b in range(B):
        prev = prevs[b]
        if prev is not None:
            results[b].append(prev)
        tb = tbs.get(b)
        if tb is None and results[b]:
            tb = texts[b].encode("utf-8")
        out.append(
            [
                Span(si, ei, tb[si:ei].decode("utf-8"), entities[e], p)
                for si, ei, e, p in results[b]
            ]
        )
    return out
