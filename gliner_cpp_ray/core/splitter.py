"""Word splitting with UTF-8 *byte* offsets.

Reproduces the reference ``WhitespaceTokenSplitter``
(/root/reference/src/tokenizer_utils.cpp:99-147): PCRE2 pattern
``\\w+(?:[-_]\\w+)*|\\S`` compiled with ``PCRE2_UTF | PCRE2_UCP``,
left-to-right non-overlapping matches, each token carrying half-open
``[start, end)`` **byte** offsets into the UTF-8 encoding of the text
(the Unicode golden in /root/reference/tests/test.cpp:116-148 pins byte,
not codepoint, offsets: ``"你好"`` → ``{0, 6}``).

The third-party ``regex`` module's ``\\w`` matches PCRE2's UCP ``\\w``
(including combining marks — ``नमस्ते`` stays one token), which the
stdlib ``re`` does not; verified against the reference goldens in
``tests/test_splitter.py``.

The vectorized paths classify each input unit (byte or codepoint) once
and find token boundaries as runs.  Token texts come from the same
arrays, with no per-token slice: tokens partition the text's
non-whitespace units and never contain whitespace, so dropping the
space units, putting one U+0020 between consecutive tokens and calling
``str.split(" ")`` once on the decoded result yields exactly the
``text[s:e]`` of every token.
"""

from __future__ import annotations

import numpy as np
import regex

# Compiled once per process; the splitter itself is stateless beyond this.
_PATTERN = regex.compile(r"\w+(?:[-_]\w+)*|\S", regex.UNICODE)

# ASCII classification tables for the vectorized fast path below.
# PCRE2 UCP \w restricted to ASCII = [A-Za-z0-9_]; \s = [ \t\n\r\f\v].
_WORD_LUT = np.zeros(128, dtype=bool)
for _r in (range(48, 58), range(65, 91), range(97, 123), (95,)):
    _WORD_LUT[list(_r)] = True
_SPACE_LUT = np.zeros(128, dtype=bool)
_SPACE_LUT[[9, 10, 11, 12, 13, 32]] = True


def _token_runs(w: np.ndarray, space: np.ndarray,
                hyphen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared run logic: the pattern collapses to run classification —
    ``_`` is itself ``\\w``, so the ``[-_]`` connector only matters for
    ``-``, and a hyphen glues two word runs iff BOTH neighbours are word
    chars (``a-b`` one token; ``a--b`` → ``a - - b``, each stray hyphen
    a one-char ``\\S`` token).  Token chars are word chars plus gluing
    hyphens; every other non-space char is its own single-char token.
    Returns (start_idx, end_idx) in INPUT-UNIT positions."""
    single = ~space & ~w
    join = hyphen.copy()
    join[:1] = False
    join[-1:] = False
    if join.any():
        join[1:-1] &= w[:-2] & w[2:]
        single &= ~join
    active = w | join | single
    # a token starts where activity begins, after a single, or AT a
    # single; ends mirror with the lookahead shift
    starts = active.copy()
    starts[1:] &= ~active[:-1] | single[1:] | single[:-1]
    ends = active.copy()
    ends[:-1] &= ~active[1:] | single[:-1] | single[1:]
    s_idx = np.flatnonzero(starts).astype(np.int64)
    e_idx = np.flatnonzero(ends).astype(np.int64) + 1
    return s_idx, e_idx


def _split_ascii(text: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Vectorized ASCII splitter, match-identical to ``_PATTERN``
    (property-tested in tests/test_splitter.py).  Byte offsets equal
    codepoint offsets here."""
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = _SPACE_LUT.take(b)
    s_idx, e_idx = _token_runs(_WORD_LUT.take(b), space, b == 45)
    return s_idx, e_idx, _token_texts(b, space, s_idx, e_idx, "ascii")


def _token_texts(units: np.ndarray, space: np.ndarray, s_idx: np.ndarray,
                 e_idx: np.ndarray, encoding: str) -> list[str]:
    """Token texts without a per-token slice.  Tokens partition the
    non-space ``units``, so laid out in order with one U+0020 after each
    token but the last, token k ends just before output position
    ``sum(len(t) + 1 for t in tokens[:k + 1]) - 1``; one decode and one
    ``split(" ")`` give every token's text."""
    if not len(s_idx):
        return []
    ends = np.cumsum(e_idx - s_idx + 1) - 1
    out = np.full(ends[-1], 32, dtype=units.dtype)
    unit = np.ones(len(out), dtype=bool)
    unit[ends[:-1]] = False
    out[unit] = units[~space]
    return out.tobytes().decode(encoding).split(" ")


# Full-unicode classification LUTs, allocated lazily (3 × 1.1 MB per
# process) and populated on demand from the ``regex`` module's OWN
# single-char ``\w`` / ``\s`` decisions — faithful to the pattern by
# construction, since ``\w+(?:[-_]\w+)*|\S`` has no multi-char class
# semantics beyond runs.
_CP_TABLES: list | None = None
_CP_W = regex.compile(r"\w", regex.UNICODE)
_CP_S = regex.compile(r"\s", regex.UNICODE)


def _split_unicode(text: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    global _CP_TABLES
    try:
        cps = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    except UnicodeEncodeError:  # lone surrogates: regex path handles them
        return _split_regex(text)
    if _CP_TABLES is None:
        w = np.zeros(0x110000, dtype=bool)
        s = np.zeros(0x110000, dtype=bool)
        w[:128] = _WORD_LUT
        s[:128] = _SPACE_LUT
        seen = np.zeros(0x110000, dtype=bool)
        seen[:128] = True
        _CP_TABLES = [w, s, seen]
    w, s, seen = _CP_TABLES
    # ASCII is pre-classified; only codepoints >= 128 can be unseen
    high = cps[cps >= 128]
    for cp in np.unique(high[~seen.take(high)]).tolist():
        ch = chr(cp)
        w[cp] = _CP_W.match(ch) is not None
        s[cp] = _CP_S.match(ch) is not None
        seen[cp] = True
    space = s.take(cps)
    s_idx, e_idx = _token_runs(w.take(cps), space, cps == 45)
    texts = _token_texts(cps, space, s_idx, e_idx, "utf-32-le")
    cp2b = _codepoint_to_byte_index(text)
    return cp2b[s_idx], cp2b[e_idx], texts


def _codepoint_to_byte_index(text: str) -> np.ndarray:
    """Map codepoint index -> byte offset in the UTF-8 encoding.

    Vectorized: UTF-8 continuation bytes are exactly those with the top
    two bits ``10``; character start positions are the rest.
    Returns an array of length ``len(text) + 1`` (last entry = total bytes).
    """
    # the NUL sentinel is a start byte at offset len(utf-8 bytes)
    raw = np.frombuffer(text.encode("utf-8") + b"\0", dtype=np.uint8)
    return np.flatnonzero((raw & 0xC0) != 0x80).astype(np.int64, copy=False)


class WordSplitter:
    """Callable word splitter: text -> (byte_starts, byte_ends, token_texts)."""

    __slots__ = ()

    def __call__(self, text: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
        # both vectorized paths are property-tested equivalent to the
        # regex reference (_split_regex); the processor calls this once
        # per micro-batch on its docs joined by spaces, so the fixed
        # cost per call is shared by the batch's docs
        if text.isascii():
            return _split_ascii(text)
        return _split_unicode(text)


def _split_regex(text: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Direct ``_PATTERN.finditer`` transcription — the semantic
    reference the vectorized paths are property-tested against, and the
    fallback for strings UTF-32 cannot encode (lone surrogates)."""
    cps: list[int] = []
    cpe: list[int] = []
    texts: list[str] = []
    for m in _PATTERN.finditer(text):
        s, e = m.span()
        cps.append(s)
        cpe.append(e)
        texts.append(m.group())
    cp_starts = np.asarray(cps, dtype=np.int64)
    cp_ends = np.asarray(cpe, dtype=np.int64)
    if len(text) == 0 or text.isascii():
        return cp_starts, cp_ends, texts
    cp2b = _codepoint_to_byte_index(text)
    return cp2b[cp_starts], cp2b[cp_ends], texts
