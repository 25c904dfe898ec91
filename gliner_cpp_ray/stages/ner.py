"""NER stage: GLiNER span extraction as a Ray Data actor pool (B5).

Usage::

    mentions = docs.map_batches(
        GlinerNERStage, batch_format="pyarrow", batch_size=256,
        concurrency=(2, 8), num_cpus=1,
        fn_constructor_kwargs={...},
    )

All heavyweight state — subword vocab, compiled word-split regex, the
scoring model (ONNX session or gazetteer stub) — is built once per actor
in ``__init__`` and reused per batch, mirroring the reference's
``Model`` object lifetime (/root/reference/src/model.cpp:7-34).

Scale behaviour:
* the stage is columnar per Arrow batch, from the splitter to the
  mention table: ONE ``WordSplitter`` call over the batch's texts joined
  by spaces (``GlinerProcessor.split_words``, cut and truncated per
  doc), the scorer per micro-batch, each micro-batch's over-threshold
  candidates as ``SpanColumns`` (doc, byte start, byte end, entity,
  prob), and ONE greedy pass (``greedy_select``) over the whole batch;
  no ``Span`` object is built on this path;
* docs inside each Arrow batch are sorted by length in characters
  (``len(str)``) and grouped into micro-batches capped by estimated
  word count, so one huge page doesn't inflate padding for the whole
  model batch (the reference pads every batch to its longest text,
  src/processor.cpp:60,80 — a cost we control without changing per-doc
  results: batch membership does not affect GLiNER decoding, only
  padding); the scorer sees the same dense ``[B, W, K, E]`` logits it
  would see from ``GlinerModel.inference`` on the same docs;
* output rows carry ``gap_next`` / ``next_*`` columns — the byte gap to
  the next mention in the same doc — so downstream relation extraction
  is a stateless per-row map with NO doc-text join (SURVEY.md B6);
* the mention table is built from the kept columns: one stable sort by
  (doc, start, end), one byte gather each for ``text`` and ``gap_next``
  over the text column's own UTF-8 buffer, a ``take`` on the label
  names, and a within-doc shift for ``next_*``.  ``pyarrow.compute``
  (imported by ``Array.take`` on first use) and ``pandas`` stay off this
  module's import path, which keeps actor start-up cheap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gliner_cpp_ray.config import GlinerConfig, SPAN_LEVEL
from gliner_cpp_ray.core.decoder import SpanColumns, greedy_select
from gliner_cpp_ray.core.model import (
    EncodedGazetteerScoringModel,
    GazetteerScoringModel,
    GlinerModel,
    OnnxScoringModel,
)
from gliner_cpp_ray.core.subword import HashSubwordTokenizer, HFSubwordTokenizer
from gliner_cpp_ray.sources import world

MENTIONS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("url", pa.string()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("text", pa.string()),
        ("label", pa.string()),
        ("prob", pa.float32()),
        # adjacency context for join-free relation extraction
        ("gap_next", pa.string()),
        ("next_text", pa.string()),
        ("next_label", pa.string()),
        ("next_prob", pa.float32()),
    ]
)

_GAP_CAP_BYTES = 48  # longest relation connective is far below this


class GlinerNERStage:
    def __init__(
        self,
        labels: list[str] | None = None,
        gazetteer: dict | None = None,
        threshold: float = 0.5,
        flat_ner: bool = True,
        multi_label: bool = False,
        max_width: int = 12,
        model_type: str = SPAN_LEVEL,
        # smaller micro-batches keep the padded tensors cache-resident;
        # measured: +20% per-core throughput at 24 parallel actors on a
        # 32-core node vs 16/8192, at no single-actor cost
        docs_per_model_batch: int = 8,
        max_words_per_model_batch: int = 2048,
        onnx_path: str | None = None,
        tokenizer_json: str | None = None,
        # device selection for the ONNX path (model.cpp:71-77): >= 0
        # selects the CUDA provider on that device; at cluster scale
        # pair with map_batches(num_gpus=...) so Ray schedules the
        # actor onto a GPU node
        device_id: int = -1,
        # "gazetteer": lean stub reading token texts (default bench path);
        # "encoded": stub that assembles AND consumes the dense ONNX
        # tensors (words_mask/span grid validated by consumption — the
        # fidelity path, ~the real model's prep cost without weights)
        scorer: str = "gazetteer",
        # test seam for the ONNX path without the onnxruntime wheel: a
        # zero-arg callable building the session INSIDE the actor (a
        # live Ort session must never be pickled across processes)
        session_factory=None,
    ):
        self.labels = labels or list(world.NER_LABELS)
        self.threshold = threshold
        self.flat_ner = flat_ner
        self.multi_label = multi_label
        self.docs_per_model_batch = docs_per_model_batch
        self.max_words_per_model_batch = max_words_per_model_batch
        cfg = GlinerConfig(max_width=max_width, model_type=model_type)
        if session_factory is not None:
            scoring = OnnxScoringModel(
                model_type=model_type, session=session_factory()
            )
            subword = HFSubwordTokenizer(tokenizer_json)
        elif onnx_path is not None:
            scoring = OnnxScoringModel(onnx_path, model_type, device_id=device_id)
            subword = HFSubwordTokenizer(tokenizer_json)
        else:
            cls = (
                EncodedGazetteerScoringModel
                if scorer == "encoded"
                else GazetteerScoringModel
            )
            scoring = cls(gazetteer or world.ner_gazetteer())
            subword = HashSubwordTokenizer()
        self.model = GlinerModel(scoring, cfg, subword)

    def _micro_batches(self, order: np.ndarray, lengths: np.ndarray):
        """Group length-sorted doc indices into bounded micro-batches."""
        group: list[int] = []
        words = 0
        for j in map(int, order):
            est = max(1, int(lengths[j]) // 5)  # ~5 characters/word heuristic
            if group and (
                len(group) >= self.docs_per_model_batch
                or words + est > self.max_words_per_model_batch
            ):
                yield group
                group, words = [], 0
            group.append(j)
            words += est
        if group:
            yield group

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts: list[str] = batch.column("text").to_pylist()
        model = self.model
        words = model.processor.split_words(texts)  # one split per Arrow batch

        lengths = np.array([len(t) for t in texts], dtype=np.int64)
        order = np.argsort(-lengths, kind="stable")  # longest first
        parts = [SpanColumns.empty(np.float32)]
        for group in self._micro_batches(order, lengths):
            spans = model.candidates(
                tuple([col[j] for j in group] for col in words),
                [texts[j] for j in group],
                self.labels, self.threshold, self.multi_label,
            )
            spans.doc = np.array(group, dtype=np.int64)[spans.doc]
            parts.append(spans)
        # each doc's candidates come from one micro-batch, so they are
        # grouped by doc and in generation order, as the greedy pass needs
        spans = SpanColumns.concat(parts)
        spans = spans.take(greedy_select(spans, self.flat_ner, self.multi_label))
        return _mention_table(batch, spans, self.labels)


def _string_column(batch: pa.Table, name: str, rows: np.ndarray):
    col = batch.column(name)
    if col.type != pa.string():
        col = col.cast(pa.string())
    return col.take(rows)


def _utf8(column) -> tuple[np.ndarray, np.ndarray]:
    """A string column's UTF-8 bytes, concatenated, and each row's byte
    offset into them: Arrow's own buffers, with no per-doc encode."""
    arr = column.combine_chunks()
    off_type = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    _, offsets, data = arr.buffers()
    offsets = np.frombuffer(offsets, off_type)[arr.offset : arr.offset + len(arr) + 1]
    utf8 = np.frombuffer(data, np.uint8) if data is not None else np.zeros(0, np.uint8)
    return utf8, offsets.astype(np.int64)


def _gather(utf8: np.ndarray, src: np.ndarray, lengths: np.ndarray) -> pa.StringArray:
    """The strings ``utf8[src[i] : src[i] + lengths[i]]``, in one gather."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    idx = np.repeat(src - offsets[:-1], lengths)
    idx += np.arange(len(idx), dtype=np.int64)
    return pa.StringArray.from_buffers(
        len(lengths), pa.py_buffer(offsets), pa.py_buffer(utf8[idx])
    )


def _mention_table(batch: pa.Table, spans: SpanColumns, labels: list[str]) -> pa.Table:
    """One row per kept span, ordered by (doc, start, end), each carrying
    the gap to and the text/label/prob of the next mention in its doc
    (empty strings and 0.0 on a doc's last mention).  The gap is the
    UTF-8 text between the two mentions, or "" unless
    0 <= bytes <= _GAP_CAP_BYTES."""
    # stable: token-level multi_label output is not in (start, end)
    # order, and identical spans keep decode order
    order = np.lexsort((spans.end, spans.start, spans.doc))
    doc, start, end = spans.doc[order], spans.start[order], spans.end[order]
    n = len(doc)

    # row i's next mention is row i + 1 within its doc, else sentinel row n
    last = np.ones(n, dtype=bool)
    last[:-1] = doc[1:] != doc[:-1]
    nxt = np.arange(1, n + 1, dtype=np.int64)
    nxt[last] = n
    label_names = pa.array(labels + [""], pa.string())
    label = label_names.take(np.append(spans.label[order], len(labels)))
    prob = np.append(spans.prob[order].astype(np.float32), np.float32(0.0))

    # text and gap_next: byte gathers over the batch's UTF-8 text
    utf8, doc_base = _utf8(batch.column("text"))
    at = doc_base[doc]
    text = _gather(utf8, np.append(at + start, 0), np.append(end - start, 0))
    gap = np.append(start, 0)[nxt] - end
    gap[last | (gap < 0) | (gap > _GAP_CAP_BYTES)] = 0
    gap_next = _gather(utf8, at + end, gap)

    return pa.Table.from_arrays(
        [
            _string_column(batch, "doc_id", doc),
            _string_column(batch, "url", doc),
            pa.array(start),
            pa.array(end),
            text.slice(0, n),
            label.slice(0, n),
            pa.array(prob[:n]),
            gap_next,
            text.take(nxt),
            label.take(nxt),
            pa.array(prob[nxt]),
        ],
        schema=MENTIONS_SCHEMA,
    )
