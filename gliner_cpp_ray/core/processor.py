"""Batch preparation: word tokenize → prompt build → encode → span grid.

Reproduces the reference processor pipeline exactly
(/root/reference/src/processor.cpp):

* prompt layout ``[<<ENT>>, e1, <<ENT>>, e2, ..., <<SEP>>, w1, w2, ...]``
  with ``promptLength = 2*|entities| + 1`` (processor.cpp:33-40);
* ``text_lengths[i]`` = word count of text i, ``num_words`` = batch max
  (processor.cpp:54,60);
* dense zero-padded ``[B, num_tokens]`` int64 tensors where
  ``num_tokens = max over batch of (2 + total subtokens)``;
  ``input_ids[:,0] = 1`` (CLS) with attention 1, a trailing ``2`` (SEP)
  with attention 1 placed immediately after each row's last subtoken —
  NOT at the padded end (processor.cpp:64-114);
* ``words_mask`` carries the 1-based *text* word index at the FIRST
  subtoken of each text word; prompt words stay 0 (processor.cpp:97-103);
* span grid: for word ``i < text_length``, widths
  ``j in [0, min(max_width, text_length - i))``;
  ``span_idx[b, i*max_width + j] = (i, i + j)``; ``num_spans =
  num_words * max_width`` (processor.cpp:122-144).

Word splitting (``split_words``) and encoding (``encode_words``) are
separate steps, so a caller can split many docs in one splitter call and
encode them in smaller batches: the NER stage splits each Arrow batch
once and encodes one micro-batch at a time; ``prepare_batch`` does both
for one batch.

The batch is a plain dataclass of NumPy arrays — the Arrow/NumPy
replacement for the reference's hand-rolled columnar ``SpanBatch``
(/root/reference/include/GLiNER/gliner_structs.hpp:22-62).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from gliner_cpp_ray.config import SPAN_LEVEL, TOKEN_LEVEL, GlinerConfig
from gliner_cpp_ray.core.splitter import WordSplitter
from gliner_cpp_ray.core.subword import SubwordTokenizer

ENT_TOKEN = "<<ENT>>"
SEP_TOKEN = "<<SEP>>"


@dataclass
class EncodedBatch:
    """Dense encoded batch (reference ``SpanBatch``/``TokenBatch`` analog)."""

    batch_size: int
    num_words: int  # max word count over the batch's *texts*
    num_tokens: int  # max subtoken count (+2 specials) over the batch
    max_width: int
    model_type: str
    input_ids: np.ndarray  # [B, num_tokens] int64
    attention_mask: np.ndarray  # [B, num_tokens] int64
    words_mask: np.ndarray  # [B, num_tokens] int64
    text_lengths: np.ndarray  # [B, 1] int64
    # per-document word tokens (byte offsets into UTF-8 text)
    token_starts: list[np.ndarray] = field(default_factory=list)
    token_ends: list[np.ndarray] = field(default_factory=list)
    token_texts: list[list[str]] = field(default_factory=list)
    # span mode only
    span_idx: np.ndarray | None = None  # [B, num_spans, 2] int64
    span_mask: np.ndarray | None = None  # [B, num_spans] bool

    def width(self) -> int:
        """SpanBatch.width()=max_width; TokenBatch.width()=num_words
        (/root/reference/src/gliner_structs.cpp:24-26,36-38)."""
        return self.max_width if self.model_type == SPAN_LEVEL else self.num_words


class GlinerProcessor:
    """Stateful batch preparer (lives in the NER actor, built once)."""

    def __init__(self, config: GlinerConfig, subword: SubwordTokenizer):
        self.config = config
        self.subword = subword
        self.splitter = WordSplitter()

    # --- A4: word tokenize (processor.cpp:13-26) --------------------------
    def split_words(
        self, texts: list[str]
    ) -> tuple[list[np.ndarray], list[np.ndarray], list[list[str]]]:
        """Per-doc word tokens ``(byte starts, byte ends, texts)`` from ONE
        splitter call on the docs joined by single spaces, cut per doc.

        This equals splitting each doc alone: the separator is
        whitespace and no token spans whitespace, and a hyphen glues two
        word runs only when both its neighbours are word characters, so
        the separator can neither merge two docs' tokens nor split one.
        Each doc's tokens are those starting in its byte range of the
        joined text, shifted back by its base.  The NER stage calls this
        once per Arrow batch, ``prepare_batch`` once per batch it
        prepares."""
        token_starts: list[np.ndarray] = []
        token_ends: list[np.ndarray] = []
        token_texts: list[list[str]] = []
        if not texts:
            return token_starts, token_ends, token_texts
        starts, ends, words = self.splitter(" ".join(texts))
        # doc i's byte base in the joined text; the last entry lies
        # past every token, so cuts[-1] == len(words)
        base = np.fromiter(
            accumulate((len(t.encode()) + 1 for t in texts), initial=0),
            np.int64, len(texts) + 1,
        )
        cuts = np.searchsorted(starts, base)
        shift = np.repeat(base[:-1], cuts[1:] - cuts[:-1])
        starts = starts - shift
        ends = ends - shift
        limit = self.config.truncate_words
        cuts = cuts.tolist()
        for a, b in zip(cuts[:-1], cuts[1:]):
            if limit is not None and b - a > limit:
                # Divergence guard (off by default); reference never truncates.
                b = a + limit
            token_starts.append(starts[a:b])
            token_ends.append(ends[a:b])
            token_texts.append(words[a:b])
        return token_starts, token_ends, token_texts

    # --- A5-A8: full batch prep (processor.cpp:146-181) ------------------
    def prepare_batch(
        self,
        texts: list[str],
        entities: list[str],
        build_encoding: bool = True,
        build_span_grid: bool = True,
    ) -> EncodedBatch:
        """``split_words`` then ``encode_words``."""
        return self.encode_words(
            *self.split_words(texts), entities, build_encoding, build_span_grid
        )

    def encode_words(
        self,
        token_starts: list[np.ndarray],
        token_ends: list[np.ndarray],
        token_texts: list[list[str]],
        entities: list[str],
        build_encoding: bool = True,
        build_span_grid: bool = True,
    ) -> EncodedBatch:
        """The batch of already split docs.  ``build_encoding`` /
        ``build_span_grid`` skip the dense tensor assembly when the
        scoring backend doesn't consume it (the deterministic stub
        scorer reads token texts only; the ONNX backend requires both).
        Token lists, ``num_words`` and decode semantics are identical
        either way."""
        cfg = self.config
        batch_size = len(token_texts)

        # Prompt prefix: <<ENT>> e1 <<ENT>> e2 ... <<SEP>>  (processor.cpp:33-40)
        prompt_prefix: list[str] = []
        for ent in entities:
            prompt_prefix.append(ENT_TOKEN)
            prompt_prefix.append(ent)
        prompt_prefix.append(SEP_TOKEN)
        prompt_len = len(prompt_prefix)

        text_lengths = np.array(
            [[len(w)] for w in token_texts], dtype=np.int64
        ).reshape(batch_size, 1)
        num_words = int(text_lengths.max(initial=0))

        if build_encoding:
            # Subword-encode every prompt word; num_tokens = max(2 + Σ|sub|).
            encode = self.subword.encode
            prefix_ids = [encode(w) for w in prompt_prefix]
            prefix_total = sum(len(x) for x in prefix_ids)
            per_doc_ids: list[list[list[int]]] = []
            num_tokens = 0
            for words in token_texts:
                doc_ids = [encode(w) for w in words]
                per_doc_ids.append(doc_ids)
                s = 2 + prefix_total + sum(len(x) for x in doc_ids)
                num_tokens = max(num_tokens, s)

            input_ids = np.zeros((batch_size, num_tokens), dtype=np.int64)
            attention_mask = np.zeros((batch_size, num_tokens), dtype=np.int64)
            words_mask = np.zeros((batch_size, num_tokens), dtype=np.int64)

            for p in range(batch_size):
                row_ids: list[int] = [1]  # CLS (processor.cpp:93)
                wmask: list[int] = [0]
                for sub in prefix_ids:  # prompt words: words_mask stays 0
                    row_ids.extend(sub)
                    wmask.extend([0] * len(sub))
                word_id = 1
                for sub in per_doc_ids[p]:
                    if sub:  # first subtoken carries the word index
                        wmask.append(word_id)
                        wmask.extend([0] * (len(sub) - 1))
                        row_ids.extend(sub)
                    # A word that encodes to ZERO subtokens contributes no
                    # positions; its index mark is simply never written —
                    # matching the reference, where wordsMasks is indexed
                    # by token position and an empty encode writes nothing
                    # (processor.cpp:97-110).  word_id still advances so
                    # later words keep their 1-based text-word indices.
                    word_id += 1
                n = len(row_ids)
                input_ids[p, :n] = row_ids
                input_ids[p, n] = 2  # SEP after last subtoken (processor.cpp:111-112)
                attention_mask[p, : n + 1] = 1
                words_mask[p, :n] = wmask
        else:
            num_tokens = 0
            input_ids = np.zeros((batch_size, 0), dtype=np.int64)
            attention_mask = input_ids
            words_mask = input_ids

        batch = EncodedBatch(
            batch_size=batch_size,
            num_words=num_words,
            num_tokens=num_tokens,
            max_width=cfg.max_width,
            model_type=cfg.model_type,
            input_ids=input_ids,
            attention_mask=attention_mask,
            words_mask=words_mask,
            text_lengths=text_lengths,
            token_starts=token_starts,
            token_ends=token_ends,
            token_texts=token_texts,
        )
        if cfg.model_type == SPAN_LEVEL and build_span_grid:
            self._prepare_spans(batch)
        return batch

    # --- A7: span enumeration (processor.cpp:122-144), vectorized --------
    def _prepare_spans(self, batch: EncodedBatch) -> None:
        K = batch.max_width
        W = batch.num_words
        num_spans = W * K
        B = batch.batch_size
        span_idx = np.zeros((B, num_spans, 2), dtype=np.int64)
        span_mask = np.zeros((B, num_spans), dtype=bool)
        if W == 0:
            batch.span_idx, batch.span_mask = span_idx, span_mask
            return
        i_grid = np.arange(W, dtype=np.int64)[:, None]  # word index
        j_grid = np.arange(K, dtype=np.int64)[None, :]  # width - 1
        starts = np.broadcast_to(i_grid, (W, K))
        ends = i_grid + j_grid
        lengths = batch.text_lengths.reshape(B, 1, 1)  # [B,1,1]
        valid = (i_grid[None] < lengths) & (ends[None] < lengths)  # j < L - i
        span_idx[:, :, 0] = np.broadcast_to(starts.reshape(1, num_spans), (B, num_spans))
        span_idx[:, :, 1] = np.broadcast_to(ends.reshape(1, num_spans), (B, num_spans))
        span_mask[:] = valid.reshape(B, num_spans)
        # masked entries keep (0, 0) like the reference's zero-init arrays
        span_idx[~span_mask] = 0
        batch.span_idx = span_idx
        batch.span_mask = span_mask
