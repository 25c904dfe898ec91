"""Encoding-layout checks vs /root/reference/src/processor.cpp:28-144."""

import numpy as np
import pytest

from gliner_cpp_ray.config import GlinerConfig, TOKEN_LEVEL
from gliner_cpp_ray.core.processor import GlinerProcessor
from gliner_cpp_ray.core.subword import HashSubwordTokenizer


class OneIdPerWord:
    """Minimal subword tokenizer: every word -> exactly one id."""

    def encode(self, word):
        return [10 + (sum(word.encode("utf-8")) % 1000)]


class TwoIdsPerWord:
    def encode(self, word):
        return [11, 12]


@pytest.fixture
def proc():
    return GlinerProcessor(GlinerConfig(max_width=3), OneIdPerWord())


def test_prompt_and_text_lengths(proc):
    b = proc.prepare_batch(["Kyiv is nice", "a b c d"], ["city", "country"])
    # textLengths = word counts (processor.cpp:54); numWords = batch max (:60)
    assert b.text_lengths.tolist() == [[3], [4]]
    assert b.num_words == 4
    # prompt = <<ENT>> city <<ENT>> country <<SEP>> = 5 words; 1 id each
    # row 1: CLS + 5 prompt + 4 text + SEP = 11 tokens -> num_tokens = 11
    assert b.num_tokens == 11


def test_cls_sep_attention_placement(proc):
    b = proc.prepare_batch(["a b", "a b c"], ["x"])
    # prompt = <<ENT>> x <<SEP>> = 3 words/ids
    # row0: [CLS, p,p,p, w,w, SEP, pad] ; row1 one longer
    assert b.input_ids[0, 0] == 1 and b.input_ids[1, 0] == 1
    assert b.input_ids[0, 6] == 2  # SEP right after last subtoken, NOT at end
    assert b.input_ids[0, 7] == 0  # padding after SEP
    assert b.input_ids[1, 7] == 2
    assert b.attention_mask[0].tolist() == [1] * 7 + [0]
    assert b.attention_mask[1].tolist() == [1] * 8


def test_words_mask_first_subtoken_only():
    proc = GlinerProcessor(GlinerConfig(max_width=3), TwoIdsPerWord())
    b = proc.prepare_batch(["a b"], ["x"])
    # CLS + 3 prompt words x 2 ids + 2 text words x 2 ids + SEP
    # words_mask: prompt subtokens 0; first subtoken of text word i -> i (1-based)
    assert b.words_mask[0].tolist() == [0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0]
    assert b.input_ids[0, 11] == 2
    assert b.num_tokens == 12


def test_span_grid_matches_reference_loop(proc):
    b = proc.prepare_batch(["a b c d", "a b"], ["x"])
    K, W = 3, b.num_words
    # literal transcription of processor.cpp:133-142
    num_spans = W * K
    exp_idx = np.zeros((2, num_spans, 2), dtype=np.int64)
    exp_mask = np.zeros((2, num_spans), dtype=bool)
    for p, L in enumerate([4, 2]):
        for i in range(L):
            for j in range(min(K, L - i)):
                idx = i * K + j
                exp_idx[p, idx] = (i, i + j)
                exp_mask[p, idx] = 1
    assert np.array_equal(b.span_idx, exp_idx)
    assert np.array_equal(b.span_mask, exp_mask)


def test_token_mode_has_no_span_grid():
    proc = GlinerProcessor(GlinerConfig(max_width=3, model_type=TOKEN_LEVEL), OneIdPerWord())
    b = proc.prepare_batch(["a b"], ["x"])
    assert b.span_idx is None and b.span_mask is None
    assert b.width() == b.num_words  # TokenBatch::width (gliner_structs.cpp:24-26)


def test_hash_subword_deterministic_and_multitoken():
    t = HashSubwordTokenizer(max_chars_per_piece=4)
    assert t.encode("internationalization") == t.encode("internationalization")
    assert len(t.encode("internationalization")) == 5
    assert all(i >= 10 for i in t.encode("ab"))


# --- one splitter call per micro-batch ---------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from gliner_cpp_ray.core.splitter import WordSplitter, _split_regex

_PIECES = st.sampled_from(
    [
        "a", "Kyiv", "b_c", "x-y", "a-", "-b", "_", "-", "--", ",", "!",
        " ", "  ", "\t", "\n", "\x0b", "\x1c", "\u00a0", "\u2028", "\u3000",
        "\u00e9", "\u0915\u094d", "\u0301", "\U0001f642", "\U0001d518",
        "\u4f60\u597d",
    ]
)
_DOC = st.one_of(
    st.sampled_from(["", " ", "\u3000 \u00a0", "a-", "-b", "_"]),
    st.lists(_PIECES, max_size=12).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_DOC, max_size=10))
def test_joined_split_equals_per_doc_reference(texts):
    b = GlinerProcessor(GlinerConfig(), OneIdPerWord()).prepare_batch(
        texts, ["x"], build_encoding=False, build_span_grid=False
    )
    assert len(b.token_texts) == len(texts)
    for text, s, e, w in zip(texts, b.token_starts, b.token_ends, b.token_texts):
        rs, re_, rw = _split_regex(text)
        assert s.tolist() == rs.tolist()
        assert e.tolist() == re_.tolist()
        assert w == rw
    assert b.text_lengths.ravel().tolist() == [len(w) for w in b.token_texts]


def test_truncate_words_applies_per_doc():
    proc = GlinerProcessor(GlinerConfig(truncate_words=2), OneIdPerWord())
    b = proc.prepare_batch(["a b c", "d", "\u00e9 f g h"], ["x"])
    assert b.token_texts == [["a", "b"], ["d"], ["\u00e9", "f"]]
    assert [s.tolist() for s in b.token_starts] == [[0, 2], [0], [0, 3]]
    assert [e.tolist() for e in b.token_ends] == [[1, 3], [1], [2, 4]]


def test_one_splitter_call_per_prepare_batch(monkeypatch, proc):
    calls = []
    real = WordSplitter.__call__

    def spy(self, text):
        calls.append(text)
        return real(self, text)

    monkeypatch.setattr(WordSplitter, "__call__", spy)
    proc.prepare_batch(["a b", "", "c-d e", "\u00fc"], ["x"])
    assert len(calls) == 1
    calls.clear()
    proc.prepare_batch([], ["x"])
    assert calls == []
