"""The NER stage's columnar mention table vs the literal per-span oracle
(tests/oracle_ner_assembly.py), on crafted batches that hit each edge of
the assembly: the gap cap, multi-byte and empty gaps, overlapping kept
spans, unsorted decoder output, docs without mentions and empty batches;
and with one Arrow batch split over several length-sorted micro-batches.
"""

import dataclasses
import os
import subprocess
import sys

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliner_cpp_ray.config import TOKEN_LEVEL
from gliner_cpp_ray.core import decoder
from gliner_cpp_ray.core.splitter import WordSplitter
from gliner_cpp_ray.stages.ner import MENTIONS_SCHEMA, GlinerNERStage
from tests.oracle_ner_assembly import assemble_mentions_oracle

LABELS = ["org", "person", "misc", "punct"]
GAZETTEER = {
    "org": {"Acme Corp": 0.9, "Alice": 0.8},
    "person": {"Acme Corp": 0.85, "Alice": 0.9, "Bob": 0.9},
    "misc": {"Acme": 0.97},
    "punct": {".": 0.95},
}

TEXTS = [
    "Alice " + "x" * 46 + " Bob",  # gap of exactly 48 bytes
    "Alice " + "x" * 47 + " Bob",  # 49 bytes: over the cap
    "Alice — Bob and Alice é Bob",  # multi-byte UTF-8 gaps
    "Alice.Bob.",  # adjacent mentions (multi_label): gap 0
    "nothing to see here",  # no mentions
    "Acme Corp hired Bob. Acme Corp, Acme and Alice.",
    "",  # empty doc
    "Bob",
]


def _batch(texts, string=pa.string()):
    return pa.table(
        {
            "doc_id": [f"d{i}" for i in range(len(texts))],
            "url": [f"https://example.org/{i}" for i in range(len(texts))],
            "text": texts,
        },
        schema=pa.schema(
            [("doc_id", string), ("url", string), ("text", string)]
        ),
    )


def _decoded(stage, texts):
    return [
        stage.model.inference(
            [t], stage.labels, stage.flat_ner, stage.threshold, stage.multi_label
        )[0]
        for t in texts
    ]


def _check(stage, texts, string=pa.string()):
    batch = _batch(texts, string)
    got = stage(batch)
    want = assemble_mentions_oracle(
        texts,
        batch.column("doc_id").to_pylist(),
        batch.column("url").to_pylist(),
        _decoded(stage, texts),
    )
    assert got.schema.equals(MENTIONS_SCHEMA)
    assert got.equals(want), (got.to_pylist(), want.to_pylist())
    return got


def _stage(truncate_words=None, **kw):
    stage = GlinerNERStage(labels=LABELS, gazetteer=GAZETTEER, **kw)
    if truncate_words is not None:  # a config field, not a stage option
        cfg = dataclasses.replace(stage.model.config, truncate_words=truncate_words)
        stage.model.config = stage.model.processor.config = cfg
    return stage


# small micro-batches: one Arrow batch spans several, and the length
# sort puts the docs of each in another order than the batch's
_MICRO = dict(max_words_per_model_batch=6)


@pytest.mark.parametrize("flat_ner", [True, False])
@pytest.mark.parametrize("multi_label", [False, True])
def test_span_stage_matches_oracle(flat_ner, multi_label):
    got = _check(_stage(flat_ner=flat_ner, multi_label=multi_label), TEXTS)
    rows = got.to_pylist()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert "d4" not in by_doc and "d6" not in by_doc
    if not multi_label:
        assert by_doc["d0"][0]["gap_next"] == " " + "x" * 46 + " "
        assert by_doc["d1"][0]["gap_next"] == ""
        assert by_doc["d1"][0]["next_text"] == "Bob"
        assert [r["gap_next"] for r in by_doc["d2"][:3]] == [" — ", " and ", " é "]
    last = by_doc["d7"][-1]
    assert (last["gap_next"], last["next_text"], last["next_label"], last["next_prob"]) == (
        "", "", "", 0.0
    )


def test_overlapping_and_adjacent_kept_spans():
    # identical spans with two labels are both kept under multi_label,
    # and the greedy pass never re-checks an emitted span, so a doc's
    # next mention can start before (or exactly where) the current ends
    got = _check(_stage(flat_ner=True, multi_label=True), TEXTS)
    rows = got.to_pylist()
    pairs = [(r, n) for r, n in zip(rows, rows[1:]) if r["doc_id"] == n["doc_id"]]
    neg = [r for r, n in pairs if n["start"] < r["end"]]
    assert neg and all(r["gap_next"] == "" and r["next_text"] for r in neg)
    adjacent = [(r, n) for r, n in pairs if n["start"] == r["end"]]
    assert adjacent
    assert all(r["gap_next"] == "" and r["next_text"] == n["text"] for r, n in adjacent)


@pytest.mark.parametrize("flat_ner", [True, False])
def test_token_level_multi_label_output_is_sorted(flat_ner):
    stage = _stage(model_type=TOKEN_LEVEL, flat_ner=flat_ner, multi_label=True)
    texts = ["Acme Corp hired Bob.", "Bob met Acme Corp and Alice."]
    if flat_ner:
        # the decoder's output is out of (start, end) order here
        spans = _decoded(stage, texts)[0]
        keys = [(s.start, s.end) for s in spans]
        assert keys != sorted(keys)
    _check(stage, texts)


def test_default_stage_matches_oracle():
    _check(GlinerNERStage(), [
        "Kyiv is the capital of Ukraine. Acme Corp opened an office in Kyiv.",
        "No entities at all.",
    ] + TEXTS)


def test_empty_batch_keeps_schema():
    got = _stage()(_batch([]))
    assert got.num_rows == 0
    assert got.schema.equals(MENTIONS_SCHEMA)


def test_batch_without_mentions():
    got = _check(_stage(), ["nothing here", "or here"])
    assert got.num_rows == 0


@pytest.mark.parametrize("docs_per_model_batch", [1, 2, 3])
@pytest.mark.parametrize("model_type", ["span_level", TOKEN_LEVEL])
@pytest.mark.parametrize("flat_ner", [True, False])
@pytest.mark.parametrize("multi_label", [False, True])
def test_stage_across_micro_batches_matches_oracle(
    docs_per_model_batch, model_type, flat_ner, multi_label
):
    stage = _stage(
        model_type=model_type, flat_ner=flat_ner, multi_label=multi_label,
        docs_per_model_batch=docs_per_model_batch, **_MICRO,
    )
    _check(stage, TEXTS + TEXTS[::-1])


@pytest.mark.parametrize("model_type", ["span_level", TOKEN_LEVEL])
def test_stage_truncates_words_per_doc(model_type):
    stage = _stage(model_type=model_type, truncate_words=2,
                   docs_per_model_batch=2, **_MICRO)
    got = _check(stage, TEXTS)
    # "Acme Corp hired Bob." keeps only its first two words
    assert {r["text"] for r in got.to_pylist() if r["doc_id"] == "d5"} <= {
        "Acme Corp", "Acme"
    }


@pytest.mark.parametrize("docs_per_model_batch", [1, 3, 8])
def test_stage_reads_large_string_columns(docs_per_model_batch):
    stage = _stage(docs_per_model_batch=docs_per_model_batch, **_MICRO)
    want = _check(stage, TEXTS)
    got = _check(stage, TEXTS, pa.large_string())
    assert got.equals(want)


_WORD = st.sampled_from(
    ["Alice", "Bob", "Acme", "Corp", "Acme Corp", ".", "é", "Ωmega", "日本",
     "x-y", "—", "\u00a0", "\u3000", " ", "\n"]
)
_DOC = st.lists(_WORD, max_size=12).map(" ".join) | st.just("") | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_DOC, max_size=9),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
def test_stage_on_random_texts_matches_oracle(texts, docs_per_model_batch,
                                              flat_ner, multi_label):
    stage = _stage(flat_ner=flat_ner, multi_label=multi_label,
                   docs_per_model_batch=docs_per_model_batch, **_MICRO)
    _check(stage, texts)


def test_stage_splits_once_and_builds_no_span(monkeypatch):
    """One Arrow batch of several micro-batches: one splitter call, and
    no ``Span`` object on the stage's path."""
    calls = {"split": 0, "span": 0}
    split, span_init = WordSplitter.__call__, decoder.Span.__init__

    def counting_split(self, text):
        calls["split"] += 1
        return split(self, text)

    def counting_span(self, *args, **kwargs):
        calls["span"] += 1
        span_init(self, *args, **kwargs)

    stage = _stage(docs_per_model_batch=2, **_MICRO)
    batch = _batch(TEXTS)
    micro = list(stage._micro_batches(
        range(len(TEXTS)), [len(t) for t in TEXTS]
    ))
    assert len(micro) >= 3
    monkeypatch.setattr(WordSplitter, "__call__", counting_split)
    monkeypatch.setattr(decoder.Span, "__init__", counting_span)
    got = stage(batch)
    assert got.num_rows > 0
    assert calls == {"split": 1, "span": 0}


def test_ner_import_leaves_compute_and_pandas_unloaded():
    # pyarrow.compute (~65 ms) and pandas would land in every NER actor's
    # start-up; Array.take imports pyarrow.compute on its first call only
    code = (
        "import sys\n"
        "import gliner_cpp_ray.stages.ner as ner\n"
        "ner.GlinerNERStage()\n"
        "print([m for m in ('pyarrow.compute', 'pandas') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.stdout.strip() == "[]"
