"""Focused unit tests: linking disambiguation, token-level stage path,
truncation guard, torn-checkpoint recovery."""

import os

import numpy as np
import pyarrow as pa
import pytest

from gliner_cpp_ray.config import GlinerConfig, TOKEN_LEVEL
from gliner_cpp_ray.sources import world
from gliner_cpp_ray.stages.linking import EntityLinker
from gliner_cpp_ray.stages.ner import GlinerNERStage
from gliner_cpp_ray.state import checkpoint


def _triple_batch(subj, sl, obj, ol):
    return pa.table(
        {
            "doc_id": ["d1"],
            "url": ["u"],
            "subj": [subj],
            "pred": ["located_in"],
            "obj": [obj],
            "subj_label": [sl],
            "obj_label": [ol],
            "subj_start": [0],
            "subj_end": [1],
            "prob": pa.array([0.9], pa.float32()),
        }
    )


def test_ambiguous_alias_resolved_by_context():
    linker = EntityLinker()
    # "Victoria" (city) is ambiguous: Canada vs Australia
    assert len(linker.candidates("Victoria", "city")) == 2
    out_ca = linker(_triple_batch("Victoria", "city", "Canada", "country"))
    assert out_ca.column("subj_qid")[0].as_py() == "Q_city_victoria_(canada)"
    out_au = linker(_triple_batch("Victoria", "city", "Australia", "country"))
    assert out_au.column("subj_qid")[0].as_py() == "Q_city_victoria_(australia)"
    # link_score is the winning cosine, meaningfully positive
    assert out_ca.column("link_score")[0].as_py() > 0.3


def test_linker_nil_and_unambiguous():
    linker = EntityLinker()
    out = linker(_triple_batch("Atlantis", "city", "Ukraine", "country"))
    assert out.column("subj_qid")[0].as_py() == ""  # NIL
    assert out.column("obj_qid")[0].as_py() == "Q_country_ukraine"


def test_token_level_ner_stage():
    docs = pa.table(
        {
            "url": ["u1"],
            "doc_id": ["d1"],
            "text": ["Kyiv is the capital of Ukraine."],
            "lang": ["en"],
            "n_bytes": [31],
        }
    )
    stage = GlinerNERStage(model_type=TOKEN_LEVEL)
    out = stage(docs)
    got = {(r["start"], r["end"], r["text"], r["label"]) for r in out.to_pylist()}
    assert (0, 4, "Kyiv", "city") in got
    assert (23, 30, "Ukraine", "country") in got


def test_truncate_words_guard():
    from gliner_cpp_ray.core.model import GazetteerScoringModel, GlinerModel

    text = "Kyiv " + "filler " * 100 + "Ukraine ."
    full = GlinerModel(GazetteerScoringModel(world.ner_gazetteer()))
    spans = full.inference([text], ["city", "country"])[0]
    assert {s.text for s in spans} == {"Kyiv", "Ukraine"}
    guarded = GlinerModel(
        GazetteerScoringModel(world.ner_gazetteer()),
        GlinerConfig(truncate_words=10),
    )
    spans_g = guarded.inference([text], ["city", "country"])[0]
    assert {s.text for s in spans_g} == {"Kyiv"}  # tail truncated away


def test_torn_checkpoint_dir_recovers(tmp_path):
    d = str(tmp_path / "stage")
    os.makedirs(d)
    with open(os.path.join(d, "partial.parquet"), "w") as f:
        f.write("torn")
    calls = []

    def produce(path):
        calls.append(path)
        assert not os.path.exists(os.path.join(path, "partial.parquet"))
        import pyarrow.parquet as pq

        pq.write_table(pa.table({"a": [1, 2]}), os.path.join(path, "out.parquet"))
        return {}

    m = checkpoint.run_stage(d, {"stage": "t"}, produce)
    assert calls and m["total_rows"] == 2
    # second run: checkpointed, producer not called again
    m2 = checkpoint.run_stage(d, {"stage": "t"}, produce)
    assert len(calls) == 1 and m2["total_rows"] == 2
