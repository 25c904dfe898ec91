"""Decoder parity vs the literal oracle transcription of decoder.cpp.

Fixtures follow FIXTURES.md F4: threshold boundary, later-span-wins,
nesting under flat_ner=False, multiLabel identical spans, token-level
continue/break asymmetry — plus seeded randomized cross-checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliner_cpp_ray.config import GlinerConfig, SPAN_LEVEL, TOKEN_LEVEL
from gliner_cpp_ray.core.decoder import (
    Span,
    SpanColumns,
    decode_span_batch,
    decode_token_batch,
    greedy_search,
    greedy_select,
    sigmoid,
)
from gliner_cpp_ray.core.processor import GlinerProcessor
from tests.oracle_decoder import (
    OSpan,
    greedy_search_oracle,
    span_decode_oracle,
    token_decode_oracle,
)


class OneId:
    def encode(self, word):
        return [17]


def make_batch(texts, entities, max_width=4, model_type=SPAN_LEVEL):
    proc = GlinerProcessor(GlinerConfig(max_width=max_width, model_type=model_type), OneId())
    return proc.prepare_batch(texts, entities)


def tokens_of(batch, b):
    return list(zip(batch.token_starts[b].tolist(), batch.token_ends[b].tolist()))


def assert_same(ours, oracle):
    assert len(ours) == len(oracle)
    for a_doc, b_doc in zip(ours, oracle):
        assert len(a_doc) == len(b_doc), (a_doc, b_doc)
        for a, b in zip(a_doc, b_doc):
            assert (a.start, a.end, a.text, a.label) == (b.start, b.end, b.text, b.label)
            assert a.prob == pytest.approx(b.prob, abs=1e-6)


def run_both_span(batch, texts, entities, logits, **kw):
    ours = decode_span_batch(batch, texts, entities, logits, **kw)
    oracle = span_decode_oracle(
        logits.ravel().tolist(),
        texts,
        entities,
        [tokens_of(batch, b) for b in range(batch.batch_size)],
        batch.num_words,
        batch.width(),
        **kw,
    )
    assert_same(ours, oracle)
    return ours


def run_both_token(batch, texts, entities, logits, **kw):
    ours = decode_token_batch(batch, texts, entities, logits, **kw)
    oracle = token_decode_oracle(
        logits.ravel().tolist(),
        texts,
        entities,
        [tokens_of(batch, b) for b in range(batch.batch_size)],
        batch.num_words,
        **kw,
    )
    assert_same(ours, oracle)
    return ours


# ---------------------------------------------------------------- span mode

def test_simple_hit_and_byte_offsets():
    texts = ["Kyiv is the capital of Ukraine."]
    ents = ["city", "country"]
    batch = make_batch(texts, ents)
    W, K, E = batch.num_words, 4, 2
    logits = np.full((1, W, K, E), -9.0, dtype=np.float32)
    logits[0, 0, 0, 0] = 2.1972246  # "Kyiv" city, sigmoid ~= 0.9
    logits[0, 5, 0, 1] = 2.1972246  # "Ukraine" country
    out = run_both_span(batch, texts, ents, logits)
    assert [(s.start, s.end, s.text, s.label) for s in out[0]] == [
        (0, 4, "Kyiv", "city"),
        (23, 30, "Ukraine", "country"),
    ]
    assert out[0][0].prob == pytest.approx(0.9, abs=1e-6)


def test_threshold_boundary_inclusive():
    # sigmoid(0) = 0.5 and the reference keeps prob >= threshold (decoder.cpp:104)
    texts = ["aa bb"]
    ents = ["x"]
    batch = make_batch(texts, ents)
    logits = np.full((1, batch.num_words, 4, 1), -9.0, dtype=np.float32)
    logits[0, 0, 0, 0] = 0.0
    out = run_both_span(batch, texts, ents, logits)
    assert len(out[0]) == 1 and out[0][0].prob == pytest.approx(0.5)
    logits[0, 0, 0, 0] = -1e-4
    out = run_both_span(batch, texts, ents, logits)
    assert out[0] == []


def test_out_of_range_spans_dropped():
    # second doc is shorter; candidates on padded words must vanish
    texts = ["a b c d e", "a b"]
    ents = ["x"]
    batch = make_batch(texts, ents)
    logits = np.full((2, batch.num_words, 4, 1), -9.0, dtype=np.float32)
    logits[1, 3, 0, 0] = 5.0  # start word 3 doesn't exist in doc 1
    logits[1, 0, 3, 0] = 5.0  # span [0, 3] runs past doc 1's 2 tokens
    logits[1, 0, 1, 0] = 5.0  # valid: words 0-1
    out = run_both_span(batch, texts, ents, logits)
    assert [(s.start, s.end) for s in out[1]] == [(0, 3)]


def test_greedy_later_span_wins_on_higher_prob():
    # overlapping spans: the sequential pass keeps the higher-prob one
    texts = ["aa bb cc"]
    ents = ["x"]
    batch = make_batch(texts, ents)
    logits = np.full((1, batch.num_words, 4, 1), -9.0, dtype=np.float32)
    logits[0, 0, 1, 0] = 1.0  # span words 0-1, lower prob
    logits[0, 1, 1, 0] = 3.0  # span words 1-2, higher prob, overlaps
    out = run_both_span(batch, texts, ents, logits)
    assert [(s.start, s.end) for s in out[0]] == [(3, 8)]


def test_greedy_is_sequential_not_global():
    # a < b overlap (b wins), b vs c no overlap -> emit b then c, even if
    # a textbook global-max greedy would pick differently
    spans = [
        Span(0, 5, "t", "x", 0.6),
        Span(3, 8, "t", "x", 0.7),
        Span(9, 12, "t", "x", 0.55),
    ]
    out = greedy_search(spans, flat_ner=True, multi_label=False)
    assert [(s.start, s.end) for s in out] == [(3, 8), (9, 12)]


def test_nested_spans_flat_vs_nested():
    texts = ["aa bb cc dd"]
    ents = ["x"]
    batch = make_batch(texts, ents)
    logits = np.full((1, batch.num_words, 4, 1), -9.0, dtype=np.float32)
    logits[0, 0, 3, 0] = 3.0  # outer: words 0-3
    logits[0, 1, 1, 0] = 1.0  # inner: words 1-2 (strictly nested)
    flat = run_both_span(batch, texts, ents, logits, flat_ner=True)
    nested = run_both_span(batch, texts, ents, logits, flat_ner=False)
    # flat: overlap -> outer (higher prob) wins alone
    assert [(s.start, s.end) for s in flat[0]] == [(0, 11)]
    # nested-aware (flat_ner=False) also treats nesting as conflict
    assert [(s.start, s.end) for s in nested[0]] == [(0, 11)]


def test_multilabel_identical_spans():
    texts = ["aa bb"]
    ents = ["x", "y"]
    batch = make_batch(texts, ents)
    logits = np.full((1, batch.num_words, 4, 2), -9.0, dtype=np.float32)
    logits[0, 0, 1, 0] = 2.0
    logits[0, 0, 1, 1] = 1.0
    single = run_both_span(batch, texts, ents, logits, multi_label=False)
    multi = run_both_span(batch, texts, ents, logits, multi_label=True)
    assert len(single[0]) == 1 and single[0][0].label == "x"
    assert [s.label for s in multi[0]] == ["x", "y"]


def _columns(docs):
    """SpanColumns of ``docs``: (doc id, [(start, end, prob), ...]) in
    row order; each doc's rows contiguous, doc ids in any order."""
    rows = [(d, s, e, p) for d, spans in docs for s, e, p in spans]
    d, s, e, p = (list(c) for c in zip(*rows)) if rows else ([], [], [], [])
    return SpanColumns(
        np.array(d, np.int64), np.array(s, np.int64), np.array(e, np.int64),
        np.zeros(len(d), np.int64), np.array(p, np.float64),
    )


def _select_by_doc(docs, flat_ner, multi_label):
    kept = _columns(docs).take(
        greedy_select(_columns(docs), flat_ner, multi_label)
    )
    got = {d: [] for d, _ in docs}
    for d, s, e, p in zip(kept.doc.tolist(), kept.start.tolist(),
                          kept.end.tolist(), kept.prob.tolist()):
        got[d].append((s, e, p))
    return got


def _oracle_by_doc(docs, flat_ner, multi_label):
    return {
        d: [
            (o.start, o.end, o.prob)
            for o in greedy_search_oracle(
                [OSpan(s, e, "t", "x", p) for s, e, p in spans], flat_ner, multi_label
            )
        ]
        for d, spans in docs
    }


@pytest.mark.parametrize("flat_ner", [True, False])
@pytest.mark.parametrize("multi_label", [False, True])
def test_greedy_select_running_candidate_is_not_the_previous_span(flat_ner, multi_label):
    # [2,3] and [5,6] do not conflict with each other, but the running
    # candidate at [5,6] is still [0,10], which beats both
    docs = [(0, [(0, 10, 0.9), (2, 3, 0.5), (5, 6, 0.8)]),
            (1, [(0, 2, 0.7), (4, 6, 0.6)])]
    got = _select_by_doc(docs, flat_ner, multi_label)
    assert got == {0: [(0, 10, 0.9)], 1: [(0, 2, 0.7), (4, 6, 0.6)]}
    assert got == _oracle_by_doc(docs, flat_ner, multi_label)


_col_span = st.builds(
    lambda s, w, p: (s, s + w, p),
    st.integers(0, 30),
    st.integers(0, 10),
    st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9]),  # ties included
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(_col_span, max_size=8), max_size=6),
    st.randoms(use_true_random=False),
    st.booleans(),
    st.booleans(),
)
def test_greedy_select_matches_oracle_per_doc(per_doc, rnd, flat_ner, multi_label):
    """The batch-wide greedy over multi-doc candidate columns equals the
    literal sequential pass on each doc alone.  Doc ids are shuffled:
    the columns are grouped by doc, not sorted."""
    ids = list(range(len(per_doc)))
    rnd.shuffle(ids)
    docs = list(zip(ids, per_doc))
    assert _select_by_doc(docs, flat_ner, multi_label) == _oracle_by_doc(
        docs, flat_ner, multi_label
    )


@pytest.mark.parametrize("seed", range(8))
def test_randomized_span_parity(seed):
    rng = np.random.default_rng(seed)
    words = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "ii", "jj"]
    B = int(rng.integers(1, 4))
    texts = [
        " ".join(rng.choice(words, size=rng.integers(1, 9)))
        for _ in range(B)
    ]
    ents = ["e1", "e2", "e3"][: int(rng.integers(1, 4))]
    K = int(rng.integers(1, 5))
    batch = make_batch(texts, ents, max_width=K)
    # logits centered at 0 so ~half the candidates pass threshold 0.5
    logits = rng.normal(0.0, 2.0, size=(B, batch.num_words, K, len(ents))).astype(np.float32)
    for flat in (True, False):
        for ml in (True, False):
            run_both_span(batch, texts, ents, logits, flat_ner=flat, multi_label=ml)


# --------------------------------------------------------------- token mode

def test_token_continue_break_asymmetry():
    texts = ["aa bb cc dd"]
    ents = ["x"]
    batch = make_batch(texts, ents, model_type=TOKEN_LEVEL)
    W, E = batch.num_words, 1
    logits = np.full((3, 1, W, E), -9.0, dtype=np.float32)
    # start at word 0
    logits[0, 0, 0, 0] = 5.0
    # ends: word0 under th (continue), word1 over, word2 under (continue), word3 over
    logits[1, 0, 1, 0] = 5.0
    logits[1, 0, 3, 0] = 5.0
    # inside: words 0..2 over th; word3 under -> break BEFORE emitting (0,3)
    logits[2, 0, 0, 0] = 2.0
    logits[2, 0, 1, 0] = 2.0
    logits[2, 0, 2, 0] = 2.0
    logits[2, 0, 3, 0] = -2.0
    out = run_both_token(batch, texts, ents, logits)
    # only span words 0..1 emitted; prob = mean of inside scores seen = sigmoid(2.0)
    assert [(s.start, s.end) for s in out[0]] == [(0, 5)]
    assert out[0][0].prob == pytest.approx(sigmoid(np.float32(2.0)), abs=1e-6)


def test_token_low_end_skipped_without_inside_check():
    # end under threshold at a position where inside is ALSO under threshold:
    # reference continues (does not break) because the end check comes first
    texts = ["aa bb cc"]
    ents = ["x"]
    batch = make_batch(texts, ents, model_type=TOKEN_LEVEL)
    W = batch.num_words
    logits = np.full((3, 1, W, 1), -9.0, dtype=np.float32)
    logits[0, 0, 0, 0] = 5.0  # start word 0
    logits[1, 0, 2, 0] = 5.0  # only end at word 2 passes
    logits[2, 0, 0, 0] = 2.0
    logits[2, 0, 1, 0] = -2.0  # inside dips under threshold at skipped word 1
    logits[2, 0, 2, 0] = 2.0
    out = run_both_token(batch, texts, ents, logits)
    assert [(s.start, s.end) for s in out[0]] == [(0, 8)]


@pytest.mark.parametrize("seed", range(8))
def test_randomized_token_parity(seed):
    rng = np.random.default_rng(100 + seed)
    words = ["aa", "bb", "cc", "dd", "ee", "ff"]
    B = int(rng.integers(1, 4))
    texts = [" ".join(rng.choice(words, size=rng.integers(1, 7))) for _ in range(B)]
    ents = ["e1", "e2"][: int(rng.integers(1, 3))]
    batch = make_batch(texts, ents, model_type=TOKEN_LEVEL)
    logits = rng.normal(0.0, 2.0, size=(3, B, batch.num_words, len(ents))).astype(np.float32)
    for flat in (True, False):
        for ml in (True, False):
            run_both_token(batch, texts, ents, logits, flat_ner=flat, multi_label=ml)


def test_token_long_same_label_run_not_quadratic():
    """A contiguous run of n same-label hits makes every start's scan
    reach the end of the run: the reference loop materializes O(n^2)
    emissions before greedy.  The fold path must produce the identical
    final output (cross-checked vs the oracle at small n) in O(total
    chain length) numpy work, with no per-emission Python objects."""
    import time

    ents = ["x"]
    # exactness at oracle-affordable size: distinct above-threshold
    # logits (an exact tie is ulp-sensitive: the float64 oracle and the
    # float32 implementation — like the reference's float math — round
    # running means differently, so selection in a tie is unspecified)
    rng = np.random.default_rng(42)
    texts = [" ".join(["aa"] * 200)]
    batch = make_batch(texts, ents, max_width=12, model_type=TOKEN_LEVEL)
    logits = rng.uniform(1.0, 5.0, size=(3, 1, batch.num_words, 1)).astype(np.float32)
    out = run_both_token(batch, texts, ents, logits)
    assert len(out[0]) > 0

    # exact-tie case: pin the implementation's (float32-sigmoid) result —
    # constant running means never strictly exceed the first, so every
    # chain collapses to its single-word head
    logits = np.full((3, 1, batch.num_words, 1), 4.0, dtype=np.float32)
    out = decode_token_batch(batch, texts, ents, logits, True, 0.5, False)
    assert len(out[0]) == 200
    assert all(s.end - s.start == 2 for s in out[0])

    # scale: 5k-run would be ~12.5M Span objects on the materializing
    # path; the fold does ~12.5M float64 cumsum steps instead
    texts = [" ".join(["aa"] * 5000)]
    batch = make_batch(texts, ents, max_width=12, model_type=TOKEN_LEVEL)
    logits = np.full(3 * batch.num_words, 4.0, dtype=np.float32)
    t0 = time.perf_counter()
    out = decode_token_batch(batch, texts, ents, logits, True, 0.5, False)
    dt = time.perf_counter() - t0
    assert len(out[0]) == 5000
    assert all(s.end - s.start == 2 for s in out[0])
    assert dt < 10.0, f"token decode took {dt:.1f}s — quadratic materialization?"


# ------------------------------------------------- candidate prefilter

_THRESHOLDS = [0.0, 1e-6, 0.3, 0.5, 0.9, 1.0 - 2.0**-24, 1.0]


def _near(x: float, ulps: int = 8) -> list[np.float32]:
    """float32 values within ``ulps`` ulps of ``x``."""
    out = [np.float32(x)]
    for direction in (np.float32(np.inf), np.float32(-np.inf)):
        v = np.float32(x)
        for _ in range(ulps):
            v = np.nextafter(v, direction)
            out.append(v)
    return out


def _boundary_logits() -> np.ndarray:
    centers = [0.0, 88.72283, -88.72283, -103.27893, 16.635532]
    for t in _THRESHOLDS:
        if 0.0 < t < 1.0:
            centers.append(float(np.log(t / (1.0 - t))))
    vals = [v for c in centers for v in _near(c)]
    vals += [np.float32(np.nan), np.float32(np.inf), np.float32(-np.inf)]
    return np.array(vals, dtype=np.float32)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("threshold", _THRESHOLDS)
def test_candidates_equal_dense_float32_test(threshold):
    """The decoder's candidates are exactly the cells whose float32
    sigmoid clears the threshold, with the same float32 probabilities,
    for logits within 8 ulps of every boundary plus NaN and +-inf.  One
    one-word doc with one entity per logit under multi_label keeps every
    candidate (identical spans never conflict), so the output is the
    candidate set itself."""
    vals = _boundary_logits()
    ents = [f"e{i}" for i in range(len(vals))]
    batch = make_batch(["aa"], ents, max_width=1)
    out = decode_span_batch(
        batch, ["aa"], ents, vals, flat_ner=True, threshold=threshold,
        multi_label=True,
    )
    dense = sigmoid(vals)
    want = np.flatnonzero(dense >= threshold)
    assert [int(s.label[1:]) for s in out[0]] == want.tolist()
    assert [s.prob for s in out[0]] == dense[want].tolist()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("threshold", [0.3, 0.5, 0.9])
def test_randomized_span_parity_near_threshold(seed, threshold):
    # larger padded batches, logits centred on logit(threshold) so about
    # half the cells pass; all four flat_ner x multi_label combinations
    rng = np.random.default_rng(1000 + seed)
    words = ["aa", "bb", "cc", "dd", "é", "ff"]
    B = int(rng.integers(2, 7))
    texts = [" ".join(rng.choice(words, size=rng.integers(0, 14))) for _ in range(B)]
    ents = ["e1", "e2", "e3", "e4"][: int(rng.integers(1, 5))]
    K = int(rng.integers(1, 6))
    batch = make_batch(texts, ents, max_width=K)
    centre = np.log(threshold / (1.0 - threshold))
    logits = rng.normal(centre, 1.5, size=(B, batch.num_words, K, len(ents)))
    logits = logits.astype(np.float32)
    for flat in (True, False):
        for ml in (True, False):
            run_both_span(
                batch, texts, ents, logits, flat_ner=flat, threshold=threshold,
                multi_label=ml,
            )
