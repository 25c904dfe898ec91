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
* docs inside each Arrow batch are sorted by length in characters
  (``len(str)``) and grouped into micro-batches capped by estimated
  word count, so one huge page
  doesn't inflate padding for the whole model batch (the reference pads
  every batch to its longest text, src/processor.cpp:60,80 — a cost we
  control without changing per-doc results: batch membership does not
  affect GLiNER decoding, only padding);
* output rows carry ``gap_next`` / ``next_*`` columns — the byte gap to
  the next mention in the same doc — so downstream relation extraction
  is a stateless per-row map with NO doc-text join (SURVEY.md B6);
* the mention table is assembled as columns: one stable sort of all the
  batch's spans by (doc, start, end), one byte gather for the gaps and a
  within-doc shift for ``next_*``.  ``pyarrow.compute`` (imported by
  ``Array.take`` on first use) and ``pandas`` stay off this module's
  import path, which keeps actor start-up cheap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gliner_cpp_ray.config import GlinerConfig, SPAN_LEVEL
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

        lengths = np.array([len(t) for t in texts], dtype=np.int64)
        order = np.argsort(-lengths, kind="stable")  # longest first
        spans_by_doc: list[list] = [[] for _ in texts]
        for group in self._micro_batches(order, lengths):
            sub = [texts[j] for j in group]
            decoded = self.model.inference(
                sub, self.labels, self.flat_ner, self.threshold, self.multi_label
            )
            for j, spans in zip(group, decoded):
                spans_by_doc[j] = spans

        return _mention_table(batch, texts, spans_by_doc)


def _string_column(batch: pa.Table, name: str, rows: np.ndarray):
    col = batch.column(name)
    if col.type != pa.string():
        col = col.cast(pa.string())
    return col.take(rows)


def _mention_table(batch: pa.Table, texts: list[str], spans_by_doc: list[list]) -> pa.Table:
    """One row per span, ordered by (doc, start, end), each carrying the
    gap to and the text/label/prob of the next mention in its doc (empty
    strings and 0.0 on a doc's last mention).  The gap is the UTF-8 text
    between the two mentions, or "" unless 0 <= bytes <= _GAP_CAP_BYTES."""
    flat = [s for spans in spans_by_doc for s in spans]
    n = len(flat)
    counts = np.fromiter(map(len, spans_by_doc), np.int64, count=len(spans_by_doc))
    doc = np.repeat(np.arange(len(spans_by_doc), dtype=np.int64), counts)
    start = np.array([s.start for s in flat], dtype=np.int64)
    end = np.array([s.end for s in flat], dtype=np.int64)
    # stable, like the per-doc sorted(): token-level multi_label output
    # is not in (start, end) order, and identical spans keep decode order
    order = np.lexsort((end, start, doc))
    doc, start, end = doc[order], start[order], end[order]
    flat = [flat[i] for i in order.tolist()]

    # row i's next mention is row i + 1 within its doc, else sentinel row n
    last = np.ones(n, dtype=bool)
    last[:-1] = doc[1:] != doc[:-1]
    nxt = np.arange(1, n + 1, dtype=np.int64)
    nxt[last] = n
    text = pa.array([s.text for s in flat] + [""], pa.string())
    label = pa.array([s.label for s in flat] + [""], pa.string())
    prob = np.array([s.prob for s in flat] + [0.0], dtype=np.float32)

    # gap_next: one gather over the batch's concatenated UTF-8 text
    encoded = [t.encode("utf-8") for t in texts]
    doc_base = np.zeros(len(encoded), dtype=np.int64)
    np.cumsum([len(b) for b in encoded[:-1]], out=doc_base[1:])
    gap = np.append(start, 0)[nxt] - end
    gap[last | (gap < 0) | (gap > _GAP_CAP_BYTES)] = 0
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(gap, out=offsets[1:])
    src = np.repeat(doc_base[doc] + end - offsets[:-1], gap)
    src += np.arange(len(src), dtype=np.int64)
    utf8 = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    gap_next = pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets), pa.py_buffer(utf8[src])
    )

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
