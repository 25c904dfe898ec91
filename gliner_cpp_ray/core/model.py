"""Scoring models + the GLiNER inference facade.

``GlinerModel`` mirrors the reference orchestration
(/root/reference/src/model.cpp:101-124): guard empty inputs → prepare
batch → score → decode, with Model-level defaults ``flat_ner=True,
threshold=0.5, multi_label=False`` (model.cpp:101-102 — these override
the decoder's own ``flatNer=false`` default, and win in every reference
example/test).

Scoring backends:

* ``OnnxScoringModel`` — the real ONNX bi-encoder, gated behind an
  import-try on ``onnxruntime`` (absent in this sandbox).  Feeds the
  exact named tensors of the reference session — span mode:
  ``input_ids, attention_mask, words_mask, text_lengths, span_idx,
  span_mask``; token mode: first four — and reads ``logits``
  (model.cpp:59-66).  Same ONNX file ⇒ identical logits ⇒ parity.
* ``GazetteerScoringModel`` — deterministic stand-in with the same I/O
  contract: emits ``hit_logit`` for spans whose word sequence matches a
  (label → surfaces) gazetteer, ``miss_logit`` elsewhere.  Makes the
  full processor→decoder path testable and benchmarkable without model
  weights; everything around it is the real pipeline.
"""

from __future__ import annotations

import math
import warnings
from itertools import compress
from typing import Iterable, Mapping, Protocol

import numpy as np

from gliner_cpp_ray.config import SPAN_LEVEL, TOKEN_LEVEL, GlinerConfig
from gliner_cpp_ray.core.decoder import (
    Span,
    SpanColumns,
    decode_candidates,
    # not called here; perfbench's trace wraps core.model.decode_span_batch
    decode_span_batch,  # noqa: F401
    spans_per_doc,
)
from gliner_cpp_ray.core.processor import EncodedBatch, GlinerProcessor
from gliner_cpp_ray.core.splitter import WordSplitter
from gliner_cpp_ray.core.subword import HashSubwordTokenizer, SubwordTokenizer


class ScoringModel(Protocol):
    def run(
        self, batch: EncodedBatch, texts: list[str], entities: list[str]
    ) -> np.ndarray:
        """Flat float32 logits (reference Model::run, model.cpp:87-99)."""
        ...


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


class GazetteerScoringModel:
    """Deterministic fake scorer keyed on word-token sequences.

    Reads token texts only — ``needs_encoding`` / ``needs_span_grid``
    let the processor skip assembling the dense ONNX input tensors it
    would never consume.

    ``gazetteer`` maps label → iterable of surface strings, or label →
    {surface: probability}.  Surfaces are word-split with the reference
    splitter at construction; a span (start word i, width L) scores a hit
    iff its token texts equal a surface's token sequence for that label.
    """

    needs_encoding = False
    needs_span_grid = False

    def __init__(
        self,
        gazetteer: Mapping[str, Iterable[str] | Mapping[str, float]],
        hit_prob: float = 0.9,
        miss_logit: float = -8.0,
    ):
        splitter = WordSplitter()
        self.miss_logit = miss_logit
        # first word -> [(token_tuple, label, logit)]
        self._index: dict[str, list[tuple[tuple[str, ...], str, float]]] = {}
        for label, surfaces in gazetteer.items():
            items = (
                surfaces.items()
                if isinstance(surfaces, Mapping)
                else ((s, None) for s in surfaces)
            )
            for surface, p in items:
                _, _, words = splitter(surface)
                if not words:
                    continue
                # Longer surfaces score marginally higher, mimicking real
                # models' preference for the fullest span; without this, a
                # prefix alias ("Acme") would tie its superstring ("Acme
                # Corp") and the sequential greedy keeps the earlier,
                # shorter candidate.
                if p is None:
                    p = min(0.98, hit_prob + 0.01 * (len(words) - 1))
                self._index.setdefault(words[0], []).append(
                    (tuple(words), label, _logit(p))
                )

    def run(
        self, batch: EncodedBatch, texts: list[str], entities: list[str]
    ) -> np.ndarray:
        B, W, E = batch.batch_size, batch.num_words, len(entities)
        ent_pos = {lbl: i for i, lbl in enumerate(entities)}
        index = self._index
        if batch.model_type == SPAN_LEVEL:
            K = batch.max_width
            logits = np.full((B, W, K, E), self.miss_logit, dtype=np.float32)
            for b in range(B):
                words = batch.token_texts[b]
                # the membership test runs in C; the loop sees only hits
                hit = map(index.__contains__, words)
                for i in compress(range(len(words)), hit):
                    for tup, label, lg in index[words[i]]:
                        L = len(tup)
                        e = ent_pos.get(label)
                        if e is None or L > K or i + L > len(words):
                            continue
                        if tuple(words[i : i + L]) == tup:
                            logits[b, i, L - 1, e] = lg
            return logits.ravel()
        # token mode: 3 stacked [B, W, E] blocks (start, end, inside)
        logits = np.full((3, B, W, E), self.miss_logit, dtype=np.float32)
        for b in range(B):
            words = batch.token_texts[b]
            hit = map(index.__contains__, words)
            for i in compress(range(len(words)), hit):
                for tup, label, lg in index[words[i]]:
                    L = len(tup)
                    e = ent_pos.get(label)
                    if e is None or i + L > len(words):
                        continue
                    if tuple(words[i : i + L]) == tup:
                        logits[0, b, i, e] = lg
                        logits[1, b, i + L - 1, e] = lg
                        logits[2, b, i : i + L, e] = lg
        return logits.ravel()


class EncodedGazetteerScoringModel(GazetteerScoringModel):
    """Gazetteer stub that CONSUMES the dense ONNX encoding.

    Unlike the base class (which reads token texts and skips tensor
    assembly), this scorer requires ``build_encoding``/``build_span_grid``
    and derives its candidate set from the tensors themselves, the way
    the real model does:

    * spans come from ``span_idx`` rows where ``span_mask`` is set —
      NOT from re-enumerating the text (so a wrong span grid produces
      wrong output, which is the point);
    * per-row word counts are cross-checked against ``text_lengths``
      and the max 1-based index in ``words_mask`` (so a words_mask
      layout bug — e.g. marking a prompt subtoken — fails loudly).

    Only the surface lookup still reads ``token_texts``: hash subword
    ids are irreversible, so no stub can recover strings from
    ``input_ids`` alone.  Logit layout is identical to the base class
    (``[B, num_words, max_width, E]`` row-major, decoder.cpp:76-121).
    """

    needs_encoding = True
    needs_span_grid = True

    def run(
        self, batch: EncodedBatch, texts: list[str], entities: list[str]
    ) -> np.ndarray:
        if batch.model_type != SPAN_LEVEL:
            return super().run(batch, texts, entities)
        if batch.span_idx is None or batch.input_ids.size == 0:
            raise ValueError(
                "EncodedGazetteerScoringModel needs the dense encoding; "
                "prepare_batch was called with build_encoding=False"
            )
        B, W, E = batch.batch_size, batch.num_words, len(entities)
        K = batch.max_width
        ent_pos = {lbl: i for i, lbl in enumerate(entities)}
        logits = np.full((B, W, K, E), self.miss_logit, dtype=np.float32)
        for b in range(B):
            words = batch.token_texts[b]
            n_words = int(batch.text_lengths[b, 0])
            marked = int(batch.words_mask[b].max(initial=0))
            if marked > n_words:
                raise ValueError(
                    f"words_mask marks word index {marked} beyond "
                    f"text_lengths {n_words} (encoding layout bug)"
                )
            for s in np.flatnonzero(batch.span_mask[b]):
                i, j = batch.span_idx[b, s]
                i, j = int(i), int(j)
                hits = self._index.get(words[i]) if i < len(words) else None
                if not hits:
                    continue
                tup = tuple(words[i : j + 1])
                for t2, label, lg in hits:
                    e = ent_pos.get(label)
                    if e is not None and t2 == tup:
                        logits[b, i, j - i, e] = lg
        return logits.ravel()


class DebugOrtSession:
    """Wheel-free stand-in for an ``onnxruntime.InferenceSession`` that
    VALIDATES the reference feed contract — input names, dtypes and
    ranks exactly as bound by ``src/gliner_structs.cpp:28-35`` and named
    in ``src/model.cpp:59-66`` — then returns logits that are a pure
    function of the span grid (span mode: hit where ``start + width``
    is even) or all-miss (token mode).  Importable from the library so
    Ray actors can build it via ``GlinerNERStage(session_factory=
    DebugOrtSession)`` without the test suite on their path; any
    feed-layout bug changes the decoded output."""

    _SPAN_FEEDS = [
        ("input_ids", "int64", 2),
        ("attention_mask", "int64", 2),
        ("words_mask", "int64", 2),
        ("text_lengths", "int64", 2),
        ("span_idx", "int64", 3),
        ("span_mask", "bool", 2),
    ]

    def __init__(self, model_type: str = SPAN_LEVEL, hit_logit: float = 4.0,
                 miss_logit: float = -8.0, n_entities: int = 1):
        self.model_type = model_type
        self.hit = hit_logit
        self.miss = miss_logit
        self.n_entities = n_entities

    def run(self, output_names, feeds):
        import numpy as np

        assert output_names == ["logits"]
        spec = (
            self._SPAN_FEEDS
            if self.model_type == SPAN_LEVEL
            else self._SPAN_FEEDS[:4]
        )
        assert list(feeds) == [n for n, _, _ in spec], list(feeds)
        B = feeds["input_ids"].shape[0]
        for name, dtype, rank in spec:
            arr = feeds[name]
            assert arr.dtype == np.dtype(dtype), (name, arr.dtype)
            assert arr.ndim == rank and arr.shape[0] == B, (name, arr.shape)
        W = int(feeds["text_lengths"].max(initial=0))
        if self.model_type != SPAN_LEVEL:
            return [np.full((3, B, W, self.n_entities), self.miss, np.float32)]
        span_idx, span_mask = feeds["span_idx"], feeds["span_mask"]
        K = span_idx.shape[1] // W
        logits = np.full((B, W, K, self.n_entities), self.miss, np.float32)
        for b in range(B):
            for s in np.flatnonzero(span_mask[b]):
                i, j = int(span_idx[b, s, 0]), int(span_idx[b, s, 1])
                if (i + (j - i)) % 2 == 0:
                    logits[b, i, j - i, 0] = self.hit
        return [logits]


def providers_for_device(device_id: int = -1) -> list:
    """Execution-provider list for a device id, mirroring the
    reference's ctor switch (model.cpp:71-77): ``device_id >= 0``
    selects the CUDA provider bound to that device, else CPU."""
    if device_id >= 0:
        return [
            ("CUDAExecutionProvider", {"device_id": device_id}),
            "CPUExecutionProvider",
        ]
    return ["CPUExecutionProvider"]


class OnnxScoringModel:
    """ONNX Runtime scoring session.

    Feeds the reference's exact named tensors (model.cpp:59-66) — span
    mode: ``input_ids, attention_mask, words_mask, text_lengths,
    span_idx, span_mask``; token mode: the first four — and reads
    ``logits``.  ``session`` injects a pre-built session object (any
    object with ``.run(output_names, feeds)``), used by tests to
    exercise the feed construction without the ``onnxruntime`` wheel;
    when absent, the wheel is required and the session is built from
    ``model_path`` with the CPU provider by default (CUDA providers can
    be passed through ``providers``, mirroring model.cpp:71-77).
    """

    needs_encoding = True
    needs_span_grid = True

    def __init__(
        self,
        model_path: str | None = None,
        model_type: str = SPAN_LEVEL,
        providers=None,
        session=None,
        device_id: int = -1,
    ):
        self.model_type = model_type
        if session is not None:
            self._sess = session
            return
        if providers is None:
            providers = providers_for_device(device_id)
        try:
            import onnxruntime as ort  # type: ignore
        except ImportError as exc:  # pragma: no cover - wheel absent in sandbox
            raise ImportError(
                "onnxruntime is not installed; use GazetteerScoringModel "
                "or install onnxruntime for numeric parity"
            ) from exc
        self._sess = ort.InferenceSession(  # pragma: no cover - needs wheel
            model_path, providers=providers
        )

    def run(
        self, batch: EncodedBatch, texts: list[str], entities: list[str]
    ) -> np.ndarray:
        feeds = {
            "input_ids": batch.input_ids,
            "attention_mask": batch.attention_mask,
            "words_mask": batch.words_mask,
            "text_lengths": batch.text_lengths,
        }
        if batch.model_type == SPAN_LEVEL:
            feeds["span_idx"] = batch.span_idx
            feeds["span_mask"] = batch.span_mask
        (out,) = self._sess.run(["logits"], feeds)
        return np.asarray(out, dtype=np.float32).ravel()


class GlinerModel:
    """Reference ``gliner::Model`` analog: processor + scorer + decoder."""

    def __init__(
        self,
        scoring: ScoringModel,
        config: GlinerConfig | None = None,
        subword: SubwordTokenizer | None = None,
    ):
        self.config = config or GlinerConfig()
        self.processor = GlinerProcessor(self.config, subword or HashSubwordTokenizer())
        self.scoring = scoring
        # the dense tensors only a scorer that reads them needs
        self._builds = dict(
            build_encoding=getattr(scoring, "needs_encoding", True),
            build_span_grid=getattr(scoring, "needs_span_grid", True),
        )

    def inference(
        self,
        texts: list[str],
        entities: list[str],
        flat_ner: bool = True,
        threshold: float = 0.5,
        multi_label: bool = False,
    ) -> list[list[Span]]:
        if not texts or not entities:  # model.cpp:104-107
            warnings.warn("Empty texts or entities.", stacklevel=2)
            return []
        batch = self.processor.prepare_batch(texts, entities, **self._builds)
        logits = self.scoring.run(batch, texts, entities)
        spans = decode_candidates(batch, logits, len(entities), threshold, multi_label)
        return spans_per_doc(spans, batch.batch_size, texts, entities, flat_ner, multi_label)

    def candidates(
        self,
        words: tuple[list, list, list],
        texts: list[str],
        entities: list[str],
        threshold: float,
        multi_label: bool,
    ) -> SpanColumns:
        """``inference`` up to the greedy pass, for docs already split:
        ``words`` holds per-doc ``(starts, ends, texts)`` lists as
        ``processor.split_words`` returns them.  The candidates' ``doc``
        indexes ``texts``."""
        batch = self.processor.encode_words(*words, entities, **self._builds)
        logits = self.scoring.run(batch, texts, entities)
        return decode_candidates(batch, logits, len(entities), threshold, multi_label)
