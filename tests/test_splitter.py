"""Word-splitter goldens from /root/reference/tests/test.cpp:17-39,116-148."""

import pytest

from gliner_cpp_ray.core.splitter import WordSplitter


def _split(text):
    s, e, w = WordSplitter()(text)
    return list(zip(s.tolist(), e.tolist(), w))


def test_golden_ascii():
    assert _split("Hello world_this-is a_test!") == [
        (0, 5, "Hello"),
        (6, 19, "world_this-is"),
        (20, 26, "a_test"),
        (26, 27, "!"),
    ]


def test_golden_unicode_byte_offsets():
    text = "你好 (Chinese), नमस्ते (Hindi), مرحبا (Arabic)"
    assert _split(text) == [
        (0, 6, "你好"),
        (7, 8, "("),
        (8, 15, "Chinese"),
        (15, 16, ")"),
        (16, 17, ","),
        (18, 36, "नमस्ते"),
        (37, 38, "("),
        (38, 43, "Hindi"),
        (43, 44, ")"),
        (44, 45, ","),
        (46, 56, "مرحبا"),
        (57, 58, "("),
        (58, 64, "Arabic"),
        (64, 65, ")"),
    ]


def test_empty_and_whitespace():
    assert _split("") == []
    assert _split("   \n\t ") == []


def test_offsets_are_bytes_and_sliceable():
    text = "naïve café — ok"
    for s, e, w in _split(text):
        assert text.encode("utf-8")[s:e].decode("utf-8") == w


# --------------------------------------------------------------------
# ASCII fast path: property-tested equivalence against the regex path.

from hypothesis import given, settings
from hypothesis import strategies as st

from gliner_cpp_ray.core.splitter import _PATTERN, _split_ascii

_ASCII_ALPHABET = st.sampled_from(
    list("ab zZ09_-–") + list(" \t\n.,;:!?'\"()[]/<>@#$%^&*+=|\\~`")
)


def _regex_reference(text: str):
    s, e, t = [], [], []
    for m in _PATTERN.finditer(text):
        s.append(m.start())
        e.append(m.end())
        t.append(m.group())
    return s, e, t


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=_ASCII_ALPHABET, max_size=80))
def test_ascii_fast_path_matches_regex(text):
    if not text.isascii():  # the en-dash probe forces non-ascii through regex
        return
    s, e, t = _split_ascii(text)
    rs, re_, rt = _regex_reference(text)
    assert s.tolist() == rs
    assert e.tolist() == re_
    assert t == rt


@pytest.mark.parametrize(
    "text",
    [
        "a-b", "a--b", "-a", "a-", "-", "--", "a-b-c", "a-_b", "__x",
        "a_b-c_d", "x- y", "3-4", "a*-b", "-a-", "", " ", "a",
        "snake_case-kebab", "tab\tsep", "line\nbreak",
    ],
)
def test_ascii_fast_path_edge_cases(text):
    s, e, t = _split_ascii(text)
    rs, re_, rt = _regex_reference(text)
    assert (s.tolist(), e.tolist(), t) == (rs, re_, rt)


# Unicode fast path: property-tested equivalence against the regex path.

from gliner_cpp_ray.core.splitter import _split_regex, _split_unicode

_UNI_ALPHABET = st.sampled_from(
    list("ab zZ09_-.,!")
    + list("你好世界")
    + list("नमस्ते")          # includes combining marks
    + list("Привіт")
    + list("é–…  ")  # latin-1, en-dash, ellipsis, nbsp, em-space
    + ["🙂", "🚀"]
)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=_UNI_ALPHABET, max_size=60))
def test_unicode_fast_path_matches_regex(text):
    s, e, t = _split_unicode(text)
    rs, re_, rt = _split_regex(text)
    assert s.tolist() == rs.tolist()
    assert e.tolist() == re_.tolist()
    assert t == rt


@pytest.mark.parametrize(
    "text",
    [
        "Hello world_this-is a_test!", "a,b;;c  d\t-e-", "x" * 5, "",
        "你好 (Chinese), नमस्ते!", "e\u0301-é\u3000🙂🙂 a\u00a0b\u2028c",
    ],
)
def test_token_texts_equal_codepoint_slices(text):
    # token texts are built from one joined decode, not per-token slices
    split = _split_ascii if text.isascii() else _split_unicode
    s, e, t = split(text)
    if not text.isascii():  # byte offsets -> codepoint offsets
        raw = text.encode("utf-8")
        s = [len(raw[:x].decode("utf-8")) for x in s.tolist()]
        e = [len(raw[:x].decode("utf-8")) for x in e.tolist()]
    assert t == [text[a:b] for a, b in zip(list(s), list(e))]


def test_unicode_goldens_still_hold_through_dispatch():
    # the reference goldens (byte offsets) via the public callable
    s, e, t = WordSplitter()("你好 world")
    assert list(zip(s.tolist(), e.tolist(), t)) == [
        (0, 6, "你好"),
        (7, 12, "world"),
    ]


def test_lone_surrogate_raises_like_the_regex_path():
    # lone surrogates have no UTF-8 encoding, so BYTE offsets are
    # undefined: both the vectorized dispatch and the regex reference
    # raise the same UnicodeEncodeError (pre-existing contract)
    txt = "ab \ud800 cd"
    with pytest.raises(UnicodeEncodeError):
        WordSplitter()(txt)
    with pytest.raises(UnicodeEncodeError):
        _split_regex(txt)
